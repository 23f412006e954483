"""The differential oracle harness: one property per level.

Every draw runs through every evaluation path, with the interpreter as
the oracle; :mod:`tests.oracle` holds the table of compared pairs and
their tolerances.  Draws are parametrized by domain; named regressions
are parametrized cases through the same checks.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.integrate import ClampSpec
from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.evaluate import DIV_EPS, EXP_MAX
from repro.gp.engine import GMREngine
from tests.oracle import (
    BLOWN,
    DOMAINS,
    EXTRAPOLATORS,
    HUGE,
    INFINITE,
    LIBM_TRAP_ROWS,
    NAN_EXPR,
    SMALL_CONFIG,
    EvaluatorCase,
    KernelCase,
    RiverCandidate,
    RolloutCase,
    agree,
    assert_same_stream,
    ast_kernel_cases,
    check_evaluator,
    check_kernel,
    check_rollout,
    decay_model,
    derivation_kernel_cases,
    derivation_rollout_cases,
    evaluator_cases,
    logistic_model,
    named_case,
    outcome,
    padded_lanes,
    poison_model,
    river_candidates,
    river_setup,
    spike_drivers,
    toy_knowledge,
    toy_task,
    uniform_columns,
    wavy_drivers,
)
from tests.expr.strategies import PARAM_NAMES, STATE_NAMES, VAR_NAMES


def cases(table: dict):
    """Parametrize ``case`` over a ``{name: case}`` table."""
    return pytest.mark.parametrize("case", list(table.values()), ids=list(table))


ONE, TWO, FIVE, ZERO = Const(1.0), Const(2.0), Const(5.0), Const(0.0)
#: ``p0 * p1``: inf under :data:`HUGE_PARAMS`, from finite leaves.
OVERFLOW = ast.mul(Param("p0"), Param("p1"))
HUGE_PARAMS = [(1e200, -1e200, 0.0)]
SIGNED_ZEROS = [(0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)]
#: One tree object read by two members under opposite parameter orders.
SHARED = ast.add(ast.mul(Param("p0"), State("s0")), ast.div(Var("v0"), Param("p2")))


def shared_tree_case(pad: str) -> KernelCase:
    """``SHARED``, another tree under the reversed order, then ``SHARED``
    again under it: the third member must not inherit the first's
    temporaries.  Two live lanes of three, the last padded by ``pad``."""
    back = PARAM_NAMES[::-1]
    other = ast.log(ast.sub(Param("p1"), ast.mul(Var("v1"), State("s0"))))
    members = (((SHARED,), PARAM_NAMES), ((other,), back), ((SHARED,), back))
    params = padded_lanes([(1.5, -2.0, 0.25), (-3.0, 0.5, 1e-13)], 3, pad)
    states = padded_lanes([(2.0,), (-0.75,)], 3, pad)
    rows = ((0.5, -1.25), (-1.25, 0.5), (math.nan, 2.0), (0.0, -0.0))
    return KernelCase(
        members, VAR_NAMES, STATE_NAMES, tuple(params * 3), tuple(states * 3), rows, 3
    )


def narrow_case() -> KernelCase:
    """Constant- and driver-only members stay narrow beside a full-width
    one, so their slice writes into the fused output must broadcast."""
    members = (
        ((Const(3.0),), ()),
        ((ast.mul(TWO, Var("v0")),), ()),
        ((ast.mul(Param("p0"), State("s0")),), PARAM_NAMES),
    )
    params = tuple(tuple(6.0 * j + lane for j in range(3)) for lane in range(6))
    return KernelCase(
        members, VAR_NAMES, STATE_NAMES, params, ((2.0,),) * 6, ((0.5, 0.0),), 2
    )


NAMED_KERNEL_CASES = {
    # NaN operands reach every operator: the scalar codegen once put the
    # protected branch on the ``else`` side, so NaN compared False and
    # log(NaN) compiled to 0.0.
    "log-nan": named_case(ast.log(NAN_EXPR)),
    "exp-nan": named_case(ast.exp(NAN_EXPR)),
    "div-nan-denominator": named_case(ast.div(ONE, NAN_EXPR)),
    "div-nan-numerator": named_case(ast.div(NAN_EXPR, TWO)),
    **{
        f"{name}-nan-{side}": named_case(op(*args))
        for name, op in (("min", ast.minimum), ("max", ast.maximum))
        for side, args in (("lhs", (NAN_EXPR, FIVE)), ("rhs", (FIVE, NAN_EXPR)))
    },
    "add-nan": named_case(ast.add(NAN_EXPR, ONE)),
    # NaN traps simplify must keep: inf - inf, nan * 0, 0 * nan, 0 / nan,
    # also built from finite leaves that overflow.
    "inf-minus-inf": named_case(ast.sub(BLOWN, BLOWN)),
    "nan-times-zero": named_case(ast.mul(NAN_EXPR, ZERO)),
    "zero-times-nan": named_case(ast.mul(ZERO, NAN_EXPR)),
    "zero-over-nan": named_case(ast.div(ZERO, NAN_EXPR)),
    "overflow-minus-overflow": named_case(
        ast.sub(OVERFLOW, OVERFLOW), params=HUGE_PARAMS
    ),
    "overflow-times-zero": named_case(ast.mul(OVERFLOW, ZERO), params=HUGE_PARAMS),
    # Protected division at, inside and outside the epsilon.
    "protected-div-epsilon": named_case(
        ast.div(Param("p0"), State("s0")),
        states=(0.0, DIV_EPS / 2, -DIV_EPS / 2, DIV_EPS / 3, 2.0),
        params=[(x, 0.0, 0.0) for x in (1.0, 2.0, 3.0, 1.0, 4.0)],
    ),
    "protected-div-const-numerator": named_case(
        ast.div(ONE, State("s0")), states=(DIV_EPS / 3, -DIV_EPS / 3, 0.0, 2.0)
    ),
    # Protected log of negative, zero and tiny arguments.
    "protected-log-edges": named_case(
        ast.log(State("s0")), states=(-math.e, 0.0, 1e-300, math.e, -5.0)
    ),
    # The exp clamp, which must keep NaN (NaN > EXP_MAX is False).
    "exp-clamp-keeps-nan": named_case(
        ast.exp(State("s0")), states=(EXP_MAX + 5, 1e9, 0.0, math.nan, EXP_MAX * 2)
    ),
    # min/max keep the first argument on ties, observable on signed zeros.
    "min-signed-zero-tie": named_case(
        ast.minimum(Param("p0"), Param("p1")), params=SIGNED_ZEROS
    ),
    "max-signed-zero-tie": named_case(
        ast.maximum(Param("p0"), Param("p1")), params=SIGNED_ZEROS
    ),
    # A tree object shared across members, beside cloned or NaN padding,
    # and narrow members in a fused output.
    "shared-tree-clone-pad": shared_tree_case("clone"),
    "shared-tree-nan-pad": shared_tree_case("nan"),
    "narrow-members": narrow_case(),
    # exp/log of drivers where NumPy and libm differ: the station hoist
    # must go through libm.
    "libm-trap-drivers": named_case(
        ast.add(ast.exp(Var("v0")), ast.log(Var("v1"))),
        rows=LIBM_TRAP_ROWS, exact=False,
    ),
}

LOGISTIC, DECAY, POISON = logistic_model(), decay_model(), poison_model()

NAMED_ROLLOUT_CASES = {
    # Columns of one structure, bitwise against the scalar stream.
    "one-structure-columns": RolloutCase(
        (LOGISTIC,), (uniform_columns(LOGISTIC, 9, 7, 0.5),), wavy_drivers(60)
    ),
    "single-column": RolloutCase((LOGISTIC,), ([(0.1, 0.01, 0.2)],), wavy_drivers(10)),
    # A custom clamp band and a half step.
    "custom-clamp-half-step": RolloutCase(
        (LOGISTIC, DECAY),
        ([(2.0, 0.0, 0.0), (0.3, 0.01, 0.1)], [(0.2,), (0.1,)]),
        wavy_drivers(20), dt=0.5, clamp=ClampSpec(minimum=0.5, maximum=3.0),
    ),
    # A poisoned column goes NaN at row 3 and freezes while its
    # batchmate and the other member run on; a cohort whose lanes all
    # die at row 0 short-circuits.
    "poisoned-column": RolloutCase(
        (POISON, LOGISTIC),
        ([(1e-3, 1e-3), (HUGE, HUGE)], uniform_columns(LOGISTIC, 2, 17, 0.4)),
        spike_drivers(10, 3), stop_after=1,
    ),
    "all-lanes-dead": RolloutCase(
        (POISON, POISON), ([(HUGE, HUGE)] * 2,) * 2, spike_drivers(12, None)
    ),
    # NaN padding lanes beside live ones.
    "nan-padding-lanes": RolloutCase(
        (LOGISTIC, DECAY),
        (uniform_columns(LOGISTIC, 3, 11, 0.4), uniform_columns(DECAY, 2, 13, 0.4)),
        wavy_drivers(25), lanes=4, pad="nan",
    ),
    # Infinite clamp bounds: states reach inf, then inf - inf.
    "infinite-clamp": RolloutCase(
        (LOGISTIC,),
        ([(3.0, -1e300, 1e300), (0.1, 0.01, 0.2)],),
        wavy_drivers(40), clamp=INFINITE, stop_after=1,
    ),
}

NAMED_EVALUATOR_CASES = {
    # The seeded cohort of the original equivalence suites: the default
    # settings (ES on, no marker yet), without ES, without the tree cache,
    # bare, and with tiny cohorts and chunks.
    **{
        name: EvaluatorCase(marker=False, kernel_min_batch=2, strict=True, **rest)
        for name, rest in (
            ("default", {}),
            ("no-es", {"es_threshold": None}),
            ("no-cache", {"use_tree_cache": False}),
            ("bare", {"es_threshold": None, "use_tree_cache": False}),
        )
    },
    "tiny-cohorts": EvaluatorCase(kernel_batch_size=3, strict=True),
    # The measured caveat: non-monotone extrapolation on exp/log models.
    "exp-log-non-monotone": EvaluatorCase(
        "river", 3, 24, 2, 4, es_threshold=1.0, extrapolator="non-monotone"
    ),
}

SEEDED_RUNS = {  # vector paths on, off
    "batched": (dict(use_batched_kernel=True), dict(use_batched_kernel=False)),
    # Every structure group, singletons included, through the vector
    # kernel (the groups structure fusion once packed).
    "fused": (dict(kernel_min_batch=1), dict(use_batched_kernel=False)),
}


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(ast_kernel_cases())
    def test_raw_trees(self, case):
        check_kernel(case)

    @cases(NAMED_KERNEL_CASES)
    def test_named(self, case):
        check_kernel(case)

    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_derivations(self, domain, data):
        check_kernel(data.draw(derivation_kernel_cases(domain)))


class TestRollout:
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_derivations(self, domain, data):
        check_rollout(data.draw(derivation_rollout_cases(domain)))

    @cases(NAMED_ROLLOUT_CASES)
    def test_named(self, case):
        check_rollout(case)


class TestEvaluator:
    @pytest.mark.parametrize("domain", ("toy",) + DOMAINS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_batch_matches_sequential(self, domain, data):
        case = data.draw(evaluator_cases(domain))
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_evaluator(case, monkeypatch)

    @cases(NAMED_EVALUATOR_CASES)
    def test_named(self, case, monkeypatch):
        check_evaluator(case, monkeypatch)

    @pytest.mark.parametrize("nan_row", [None, 20, 70], ids=["clean", "nan20", "nan70"])
    # This axis toggled structure fusion until it was deleted; its ids
    # are kept so the grid's test ids stay stable: "batched" runs with
    # the tree cache on, "fused" with it off.
    @pytest.mark.parametrize("use_tree_cache", [True, False], ids=["batched", "fused"])
    @pytest.mark.parametrize("width", [3, 64], ids=["k3", "k64"])
    @pytest.mark.parametrize("extrapolator", sorted(EXTRAPOLATORS))
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 1.0, 1.3])
    def test_lane_retirement(
        self, monkeypatch, threshold, extrapolator, width, use_tree_cache, nan_row
    ):
        """The seeded toy cohort against a finite marker, over the grid of
        thresholds, extrapolators, chunk widths, the tree cache (off,
        duplicates share a column by exact parameters and replay without
        cache hits) and poisoned rows: equivalent, and columns retire
        before the horizon."""
        case = EvaluatorCase(
            es_threshold=threshold,
            extrapolator=extrapolator,
            kernel_batch_size=width,
            use_tree_cache=use_tree_cache,
            nan_row=nan_row,
            strict=True,
        )
        marker, evaluator, log = check_evaluator(case, monkeypatch)
        n_cases = toy_task().n_cases
        assert log.retired(n_cases)
        assert evaluator.stats.steps_integrated < log.columns * n_cases
        assert all(rollout.rows_run == rollout.n_steps for rollout in log.rollouts)
        if nan_row is None:
            # Members beat the starting marker mid-cohort.
            assert evaluator.best_prev_full < marker

    @cases(SEEDED_RUNS)
    def test_seeded_run(self, case):
        """A seeded engine run with the vector paths on and off: same
        champion and history within 1e-9, same Algorithm 1 counts."""
        on, off = case
        run_on, run_off = (
            GMREngine(
                toy_knowledge(), toy_task(), dataclasses.replace(SMALL_CONFIG, **o)
            ).run(seed=12)
            for o in (on, off)
        )
        for a, b in zip(
            [run_on.best_fitness, *(r.best_fitness for r in run_on.history)],
            [run_off.best_fitness, *(r.best_fitness for r in run_off.history)],
            strict=True,
        ):
            assert agree(a, b, 1e-9)
        assert run_on.stats.evaluations == run_off.stats.evaluations
        assert run_on.stats.short_circuits == run_off.stats.short_circuits
        if on.get("kernel_min_batch") == 1:
            assert run_on.stats.batched_evaluations > 0


class TestNetwork:
    @settings(max_examples=40, deadline=None)
    @given(river_candidates)
    def test_streams(self, candidate):
        task, __, __ = river_setup()
        model, params = candidate.build()
        assert_same_stream(task, model, params)

    def test_seed_model_streams(self):
        task, __, __ = river_setup()
        model, params = RiverCandidate(seed=3).build()
        assert_same_stream(task, model, params)

    def test_seed_model_runs_the_full_horizon(self):
        task, __, __ = river_setup()
        model, params = RiverCandidate(seed=3).build()
        values, error = outcome(task.error_stream(model, params))
        assert error is None
        assert len(values) == task.n_cases
