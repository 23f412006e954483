"""Batched kernels: generated source and the kernel cache.

The batched compiler (:func:`repro.expr.compile.compile_model_batched`)
is the one-member cohort compiler.  Its column-wise agreement with the
scalar kernel and the interpreter -- protected-operator edges and NaN
propagation included -- is checked by the differential oracle harness
(``tests/test_oracle.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var, strip_ext
from repro.expr.compile import (
    CompilationError,
    KernelCache,
    compile_model_batched,
    compile_model_cohort,
    generate_cohort_source,
)
from tests.expr.strategies import PARAM_NAMES, STATE_NAMES, VAR_NAMES, expressions


def batched_from_expr(expr):
    """Compile one expression as a single-state batched model."""
    return compile_model_batched(
        [strip_ext(expr)], PARAM_NAMES, VAR_NAMES, STATE_NAMES
    )


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
