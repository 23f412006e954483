"""Batched kernels: column-wise equivalence with the scalar interpreter.

The batched compiler (:func:`repro.expr.compile.compile_model_batched`)
must agree with the reference tree-walking interpreter on every column of
its ``(n_states, K)`` state matrix -- including the protected-operator
edge cases (near-zero divisors, out-of-range exp, non-positive log) and
NaN propagation, where naive vectorisation is easiest to get wrong.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var, strip_ext
from repro.expr.compile import (
    CompilationError,
    KernelCache,
    compile_model,
    compile_model_batched,
    compile_model_cohort,
    generate_cohort_source,
)
from repro.expr.evaluate import (
    DIV_EPS,
    EXP_MAX,
    batched_protected_div,
    batched_protected_exp,
    batched_protected_log,
    evaluate,
)
from tests.expr.strategies import (
    PARAM_NAMES,
    STATE_NAMES,
    VAR_NAMES,
    bindings,
    expressions,
)


def batched_from_expr(expr):
    """Compile one expression as a single-state batched model."""
    return compile_model_batched(
        [strip_ext(expr)], PARAM_NAMES, VAR_NAMES, STATE_NAMES
    )


def stack_columns(columns):
    """Turn per-column binding dicts into (params, vars-row, states)."""
    params = np.array(
        [[binding[0][name] for binding in columns] for name in PARAM_NAMES]
    )
    states = np.array(
        [[binding[2][name] for binding in columns] for name in STATE_NAMES]
    )
    return params, states


class TestBatchedMatchesInterpreter:
    @settings(max_examples=150, deadline=None)
    @given(expressions(), bindings(), bindings(), bindings())
    def test_random_ast_columns(self, expr, b0, b1, b2):
        columns = [b0, b1, b2]
        kernel = batched_from_expr(expr)
        params, states = stack_columns(columns)
        # All columns share one driver row; vary it via the first binding.
        row = np.array([b0[1][name] for name in VAR_NAMES])
        out = kernel(params, row, states)
        assert out.shape == (len(STATE_NAMES), len(columns))
        for column, binding in enumerate(columns):
            expected = evaluate(
                strip_ext(expr), binding[0], dict(zip(VAR_NAMES, row)), binding[2]
            )
            got = out[0, column]
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=0.0) or (
                    got == expected
                )

    @settings(max_examples=100, deadline=None)
    @given(expressions(), bindings(), bindings())
    def test_batched_matches_scalar_compiled(self, expr, b0, b1):
        """Batched and scalar *compiled* kernels agree on finite inputs,
        every row of a driver block hoisted in one precompute."""
        columns = [b0, b1]
        scalar = compile_model(
            [strip_ext(expr)], PARAM_NAMES, VAR_NAMES, STATE_NAMES
        )
        kernel = batched_from_expr(expr)
        params, states = stack_columns(columns)
        table = np.array(
            [[binding[1][name] for name in VAR_NAMES] for binding in columns]
        )
        hoisted = kernel.precompute(params, table)
        for t, row in enumerate(table):
            out = kernel.step(params, hoisted, t, states)
            for column in range(len(columns)):
                expected = scalar(
                    tuple(params[:, column]),
                    tuple(row),
                    tuple(states[:, column]),
                )[0]
                got = out[0, column]
                if math.isnan(expected):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(
                        expected, rel=1e-9, abs=0.0
                    ) or (got == expected)


class TestProtectedOpEdges:
    def test_protected_div_near_zero_denominators(self):
        numerator = np.array([1.0, 2.0, 3.0, 4.0])
        denominator = np.array([0.0, DIV_EPS / 2, -DIV_EPS / 2, 2.0])
        out = batched_protected_div(numerator, denominator)
        assert list(out) == [0.0, 0.0, 0.0, 2.0]

    def test_protected_log_negative_and_tiny(self):
        values = np.array([-math.e, 0.0, 1e-300, math.e])
        out = batched_protected_log(values)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == 0.0
        assert out[2] == 0.0
        assert out[3] == pytest.approx(1.0)

    def test_protected_exp_clamps_but_keeps_nan(self):
        values = np.array([EXP_MAX + 5.0, 1e9, 0.0, np.nan])
        out = batched_protected_exp(values)
        assert out[0] == math.exp(EXP_MAX)
        assert out[1] == math.exp(EXP_MAX)
        assert out[2] == 1.0
        # The interpreter leaves NaN untouched (NaN > EXP_MAX is False);
        # the batched helper must not "rescue" it to exp(EXP_MAX).
        assert math.isnan(out[3])

    @pytest.mark.parametrize(
        "builder, value",
        [
            (lambda: ast.div(Const(1.0), State("s0")), DIV_EPS / 3),
            (lambda: ast.log(State("s0")), -5.0),
            (lambda: ast.exp(State("s0")), EXP_MAX * 2),
        ],
    )
    def test_edge_inputs_through_full_kernel(self, builder, value):
        expr = builder()
        kernel = batched_from_expr(expr)
        params = np.zeros((len(PARAM_NAMES), 2))
        row = np.zeros(len(VAR_NAMES))
        states = np.array([[value, 1.0]])
        out = kernel(params, row, states)
        for column in range(2):
            expected = evaluate(
                expr,
                dict.fromkeys(PARAM_NAMES, 0.0),
                dict.fromkeys(VAR_NAMES, 0.0),
                {"s0": states[0, column]},
            )
            assert out[0, column] == expected

    def test_min_max_tie_break_matches_python(self):
        # Python's min(a, b) returns a on ties; max(a, b) likewise.  With
        # signed zeros the choice is observable: min(0.0, -0.0) is 0.0.
        expr = ast.minimum(Param("p0"), Param("p1"))
        kernel = batched_from_expr(expr)
        params = np.zeros((len(PARAM_NAMES), 2))
        params[0, :] = [0.0, -0.0]
        params[1, :] = [-0.0, 0.0]
        row = np.zeros(len(VAR_NAMES))
        states = np.ones((1, 2))
        out = kernel(params, row, states)
        assert math.copysign(1.0, out[0, 0]) == 1.0
        assert math.copysign(1.0, out[0, 1]) == -1.0


class TestGeneratedSource:
    def test_source_is_attached_and_vectorised(self):
        expr = ast.add(ast.div(Param("p0"), State("s0")), Var("v0"))
        kernel = batched_from_expr(expr)
        assert "_pdiv" in kernel.source
        assert "def _compiled_cohort" in kernel.source

    def test_source_function_shape(self):
        expr = ast.mul(Const(2.0), State("s0"))
        source = generate_cohort_source(
            [([expr], PARAM_NAMES)], VAR_NAMES, STATE_NAMES, 1
        )
        assert "_out" in source

    @settings(max_examples=60, deadline=None)
    @given(expressions(), st.sampled_from([1, 3, 8]))
    def test_source_is_one_member_cohort(self, expr, lanes):
        """The batched kernel is the one-member cohort kernel: same
        source for any lane count, same hoisted temporaries."""
        exprs = [strip_ext(expr)]
        member = [(exprs, PARAM_NAMES)]
        batched = compile_model_batched(
            exprs, PARAM_NAMES, VAR_NAMES, STATE_NAMES
        )
        assert batched.source == generate_cohort_source(
            member, VAR_NAMES, STATE_NAMES, lanes
        )
        cohort = compile_model_cohort(member, VAR_NAMES, STATE_NAMES, lanes)
        assert batched.n_hoisted == cohort.n_hoisted

    def test_wrong_equation_count_rejected(self):
        with pytest.raises(CompilationError, match="2 equations for 1 states"):
            compile_model_batched(
                [State("s0"), State("s0")], PARAM_NAMES, VAR_NAMES, STATE_NAMES
            )


class TestKernelCache:
    def test_lru_eviction_and_stats(self):
        cache = KernelCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert len(cache) == 2

    def test_get_or_build_builds_once(self):
        cache = KernelCache(max_entries=4)
        calls = []

        def builder():
            calls.append(1)
            return "kernel"

        assert cache.get_or_build("k", builder) == "kernel"
        assert cache.get_or_build("k", builder) == "kernel"
        assert len(calls) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            KernelCache(max_entries=0)
