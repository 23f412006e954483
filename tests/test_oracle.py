"""The differential oracle harness: one property per level.

Every draw runs through every evaluation path, with the interpreter as
the oracle; :mod:`tests.oracle` holds the table of compared pairs and
how each pair is compared.  Draws are parametrized by domain; named
regressions are parametrized cases through the same checks.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec
from repro.dynamics.system import ProcessModel
from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.evaluate import DIV_EPS, EXP_MAX
from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine
from repro.gp.fitness import GMRFitnessEvaluator
from repro.lint.triage import _hull_bounds, triage_fatal
from tests.oracle import (
    BLOWN,
    DOMAINS,
    EXTRAPOLATORS,
    HUGE,
    INFINITE,
    LIBM_TRAP_ROWS,
    NAN_EXPR,
    SCALES,
    SMALL_CONFIG,
    TRIAGE_PROBLEMS,
    EvaluatorCase,
    KernelCase,
    RiverCandidate,
    RolloutCase,
    assert_same_stream,
    ast_kernel_cases,
    bits,
    check_evaluator,
    check_kernel,
    check_rollout,
    check_stream,
    decay_model,
    derivation_kernel_cases,
    derivation_rollout_cases,
    evaluator_cases,
    logistic_model,
    named_case,
    outcome,
    padded_lanes,
    poison_model,
    report_fatal,
    river_candidates,
    river_setup,
    scaled,
    spike_drivers,
    toy_knowledge,
    toy_task,
    triage_cases,
    triage_setup,
    two_state_model,
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
    again under it: one tree object compiled under two parameter orders.
    Two live lanes of three, the last padded by ``pad``."""
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
    """Constant- and driver-only members beside one that reads a
    parameter and a state: kernels with no parameter or no state."""
    members = (
        ((Const(3.0),), ()),
        ((ast.mul(TWO, Var("v0")),), ()),
        ((ast.mul(Param("p0"), State("s0")),), PARAM_NAMES),
    )
    params = tuple(tuple(6.0 * j + lane for j in range(3)) for lane in range(6))
    return KernelCase(
        members, VAR_NAMES, STATE_NAMES, params, ((2.0,),) * 6, ((0.5, 0.0),), 2
    )


#: A NaN of each sign bit.
SIGNED_NANS = (math.nan, math.copysign(math.nan, -1.0))

#: ``log`` of a signed NaN read as a parameter (the station form's setup
#: stream), a driver (its NumPy hoist) and a state (its step stream):
#: every form keeps the sign bit the interpreter's ``abs`` gives.
NAN_SIGN_CASES = {
    f"log-nan-{name}": named_case(
        ast.log(leaf),
        states=SIGNED_NANS,
        params=[(nan,) * len(PARAM_NAMES) for nan in SIGNED_NANS],
        rows=tuple((nan, nan) for nan in SIGNED_NANS),
    )
    for name, leaf in (
        ("param", Param("p0")), ("driver", Var("v0")), ("state", State("s0"))
    )
}

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
    # A tree object shared across members, beside cloned or NaN padding
    # lanes, and members that read no parameter or no state.
    "shared-tree-clone-pad": shared_tree_case("clone"),
    "shared-tree-nan-pad": shared_tree_case("nan"),
    "narrow-members": narrow_case(),
    # exp/log of drivers where NumPy and libm differ: the station hoist
    # must go through libm.
    "libm-trap-drivers": named_case(
        ast.add(ast.exp(Var("v0")), ast.log(Var("v1"))), rows=LIBM_TRAP_ROWS
    ),
}

LOGISTIC, DECAY, POISON = logistic_model(), decay_model(), poison_model()
TWO_STATE = two_state_model()

NAMED_ROLLOUT_CASES = {
    # Columns of one structure.
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
    # A poisoned column raises at row 3 beside healthy ones; every
    # column of a poisoned model raises at row 0.
    "poisoned-column": RolloutCase(
        (POISON, LOGISTIC),
        ([(1e-3, 1e-3), (HUGE, HUGE)], uniform_columns(LOGISTIC, 2, 17, 0.4)),
        spike_drivers(10, 3),
    ),
    "all-lanes-dead": RolloutCase(
        (POISON, POISON), ([(HUGE, HUGE)] * 2,) * 2, spike_drivers(12, None)
    ),
    # NaN parameter columns beside live ones.
    "nan-padding-lanes": RolloutCase(
        (LOGISTIC, DECAY),
        (
            uniform_columns(LOGISTIC, 3, 11, 0.4) + [(math.nan,) * 3],
            uniform_columns(DECAY, 2, 13, 0.4) + [(math.nan,)],
        ),
        wavy_drivers(25),
    ),
    # Infinite clamp bounds: states reach inf, then inf - inf.
    "infinite-clamp": RolloutCase(
        (LOGISTIC,),
        ([(3.0, -1e300, 1e300), (0.1, 0.01, 0.2)],),
        wavy_drivers(40), clamp=INFINITE,
    ),
    # The non-target state Z turns NaN at row 3 (columns 0 and 1 target
    # B); columns 2 and 3 target Z, and column 3 stays healthy.
    "non-target-nan": RolloutCase(
        (TWO_STATE,),
        ([(0.2, 0.01, HUGE, HUGE, 0.1)] * 3 + [(0.2, 0.01, 1e-3, 1e-3, 0.1)],),
        spike_drivers(10, 3), initial_state=(2.0, 2.0),
    ),
    # Drivers with an extra column ahead of the model's one, so every
    # stream and rollout selects its columns.
    "select-columns": RolloutCase(
        (LOGISTIC, DECAY),
        (uniform_columns(LOGISTIC, 2, 19, 0.4), [(0.1,), (0.3,)]),
        DriverTable.from_mapping(
            {"Vy": [math.nan] * 30, "Vx": wavy_drivers(30).values[:, 0]}
        ),
    ),
}

NAMED_EVALUATOR_CASES = {
    # The seeded cohort of the original equivalence suites: the default
    # settings (ES on, no marker yet), without ES, without the tree cache,
    # bare, and handed over three members at a time.
    **{
        name: EvaluatorCase(marker=False, **rest)
        for name, rest in (
            ("default", {}),
            ("no-es", {"es_threshold": None}),
            ("no-cache", {"use_tree_cache": False}),
            ("bare", {"es_threshold": None, "use_tree_cache": False}),
        )
    },
    "tiny-cohorts": EvaluatorCase(chunk=3),
    # Non-monotone extrapolation on exp/log models, which amplified
    # NumPy's last-ulp exp/log differences in member 25 to 1e-9.
    "exp-log-non-monotone": EvaluatorCase(
        "river", 3, 24, 2, 4, es_threshold=1.0, extrapolator="non-monotone"
    ),
}

#: Seeded engine runs under the batch knobs (batched offspring and
#: Gaussian proposals): on the toy problem with the tree cache on
#: (``batched``) and off (``fused``; the ids are the vector paths these
#: runs compared until those were deleted), and on the full river task
#: under the river-vector benchmark workload's knobs.
BATCHING = dict(eval_batch_size=10, gaussian_proposals=4)
SEEDED_RUNS = {
    "batched": ("toy", dataclasses.replace(SMALL_CONFIG, **BATCHING), 12),
    "fused": (
        "toy",
        dataclasses.replace(SMALL_CONFIG, use_tree_cache=False, **BATCHING),
        12,
    ),
    "river-vector": (
        "river",
        GMRConfig(
            population_size=24, max_generations=3, max_size=20, init_max_size=8,
            local_search_steps=3, eval_batch_size=24, gaussian_proposals=8,
        ),
        6,
    ),
}


def seeded_run(domain: str, config: GMRConfig, seed: int):
    """A seeded engine run on the toy problem or a domain's full task."""
    if domain == "toy":
        engine = GMREngine(toy_knowledge(), toy_task(), config)
    else:
        engine = GMREngine.for_domain(domain, config)
    return engine, engine.run(seed=seed)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(ast_kernel_cases())
    def test_raw_trees(self, case):
        check_kernel(case)

    @cases(NAMED_KERNEL_CASES)
    def test_named(self, case):
        check_kernel(case)

    @cases(NAN_SIGN_CASES)
    def test_log_nan_sign_bits(self, case):
        check_kernel(case, compare=bits)

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


class TestStream:
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_derivations(self, domain, data):
        check_stream(data.draw(derivation_rollout_cases(domain)))

    @cases(NAMED_ROLLOUT_CASES)
    def test_named(self, case):
        check_stream(case)


class TestEvaluator:
    @pytest.mark.parametrize("domain", ("toy",) + DOMAINS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_batch_matches_sequential(self, domain, data):
        check_evaluator(data.draw(evaluator_cases(domain)))

    @cases(NAMED_EVALUATOR_CASES)
    def test_named(self, case):
        check_evaluator(case)

    @pytest.mark.parametrize("nan_row", [None, 20, 70], ids=["clean", "nan20", "nan70"])
    # The grid once covered the vector path's lane retirement; its ids
    # are kept stable.  "batched" runs with the tree cache on, "fused"
    # with it off, and the width is the chunk ``evaluate_batch`` takes.
    @pytest.mark.parametrize("use_tree_cache", [True, False], ids=["batched", "fused"])
    @pytest.mark.parametrize("width", [3, 64], ids=["k3", "k64"])
    @pytest.mark.parametrize("extrapolator", sorted(EXTRAPOLATORS))
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 1.0, 1.3])
    def test_lane_retirement(
        self, threshold, extrapolator, width, use_tree_cache, nan_row
    ):
        """The seeded toy cohort against a finite marker, over the grid of
        thresholds, extrapolators, chunk widths, the tree cache and
        poisoned rows: equivalent to the reference, and Algorithm 1 cuts
        members before the horizon."""
        case = EvaluatorCase(
            es_threshold=threshold,
            extrapolator=extrapolator,
            chunk=width,
            use_tree_cache=use_tree_cache,
            nan_row=nan_row,
        )
        marker, evaluator = check_evaluator(case)
        stats = evaluator.stats
        assert stats.short_circuits > 0
        assert stats.steps_evaluated < stats.steps_possible
        if nan_row is None:
            # Members beat the starting marker mid-cohort.
            assert evaluator.best_prev_full < marker

    @cases(SEEDED_RUNS)
    def test_seeded_run(self, case):
        """A seeded engine run's champion, re-scored by a fresh evaluator
        with ES and the tree cache off, compiled and through the
        interpreter, has exactly its fitness."""
        domain, config, seed = case
        engine, result = seeded_run(domain, config, seed)
        champion = result.best
        assert champion.fully_evaluated
        full = dataclasses.replace(config, es_threshold=None, use_tree_cache=False)
        for use_compilation in (True, False):
            oracle = dataclasses.replace(full, use_compilation=use_compilation)
            evaluator = GMRFitnessEvaluator(task=engine.task, config=oracle)
            rescored = evaluator.evaluate(champion.copy())
            assert rescored == result.best_fitness, (use_compilation, rescored)


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


#: The A001 lint fixture's right-hand side: inf + (-inf) for every input.
A001_RHS = ast.add(
    ast.mul(Const(1e200), Const(1e200)), ast.mul(Const(-1e200), Const(1e200))
)
#: ``_R0 * _R0`` overflows to inf everywhere on the divergent problem's
#: hull, so times ``mu`` it is NaN at ``mu = 0`` (the prior's lower
#: edge) and maybe-NaN over the hull: the memo must not clear it.
INF_TIMES_MU = ast.mul(ast.mul(Param("_R0"), Param("_R0")), Param("mu"))

#: ``(problem, right-hand side of every state, parameters in sorted
#: name order, fatal)``.
NAMED_TRIAGE_CASES = {
    **{
        f"a001-fixture-{problem}": (problem, A001_RHS, (), True)
        for problem in TRIAGE_PROBLEMS
    },
    "inf-times-prior-edge": ("divergent", INF_TIMES_MU, (1e160, 0.0), True),
    "inf-times-prior-inside": ("divergent", INF_TIMES_MU, (1e160, 0.25), False),
}


class TestTriage:
    @pytest.mark.parametrize("problem", TRIAGE_PROBLEMS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fatal_matches_report(self, problem, data):
        """The engine's fatal-only check against the full report's fatal
        findings, at the prior values and scaled far outside the hull."""
        model, params, context = data.draw(triage_cases(problem))
        vector = scaled(params, data.draw(st.sampled_from(SCALES)))
        assert triage_fatal(model, vector, context) == report_fatal(
            model, vector, context
        )

    @pytest.mark.parametrize("problem", TRIAGE_PROBLEMS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hull_verdict_clears_every_binding_inside_it(self, problem, data):
        model, __, context = data.draw(triage_cases(problem))
        bounds = _hull_bounds(model, context)
        if bounds is None:
            return
        vector = tuple(
            data.draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))
            for lo, hi in bounds
        )
        assert not report_fatal(model, vector, context)
        assert not triage_fatal(model, vector, context)

    @pytest.mark.parametrize("problem", TRIAGE_PROBLEMS)
    def test_seed_is_cleared_on_its_hull(self, problem):
        """Each problem's expert seed takes the memo path, so the hull
        property above is not vacuous."""
        knowledge, __, task, context = triage_setup(problem)
        model = ProcessModel.from_equations(
            knowledge.seed_equations, task.var_order
        )
        assert _hull_bounds(model, context) is not None

    @cases(NAMED_TRIAGE_CASES)
    def test_named(self, case):
        problem, rhs, params, fatal = case
        __, __, task, context = triage_setup(problem)
        equations = {name: rhs for name in task.state_names}
        model = ProcessModel.from_equations(equations, task.var_order)
        assert triage_fatal(model, params, context) == fatal
        assert report_fatal(model, params, context) == fatal
        if fatal:
            # The None verdict is memoised: asking again is a hit.
            hits = context.hull_memo.stats.hits
            assert _hull_bounds(model, context) is None
            assert context.hull_memo.stats.hits == hits + 1
