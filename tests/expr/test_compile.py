"""Runtime compilation: correctness of the scalar kernel, and the kernel
cache.

Its equivalence with the interpreter and the station kernel is
checked by the differential oracle harness (``tests/test_oracle.py``).
"""

import math

import pytest

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.compile import (
    CompilationError,
    compile_expr,
    compile_model,
    generate_source,
)
from repro.lru import LRU


class TestCompileExpr:
    def test_simple_expression(self):
        expr = ast.add(ast.mul(Param("a"), Var("x")), Const(1))
        func = compile_expr(expr, ["a"], ["x"])
        assert func((2.0,), (3.0,)) == 7.0

    def test_source_is_attached(self):
        expr = ast.add(Const(1), Const(2))
        func = compile_expr(expr, [])
        assert "def _compiled" in func.source

    def test_unbound_name_raises_at_compile_time(self):
        with pytest.raises(CompilationError, match="parameter"):
            compile_expr(Param("nope"), [])

    def test_protected_division_in_compiled_code(self):
        expr = ast.div(Const(1), Var("x"))
        func = compile_expr(expr, [], ["x"])
        assert func((), (0.0,)) == 0.0
        assert func((), (4.0,)) == 0.25

    def test_protected_log_in_compiled_code(self):
        expr = ast.log(Var("x"))
        func = compile_expr(expr, [], ["x"])
        assert func((), (0.0,)) == 0.0
        assert func((), (-math.e,)) == pytest.approx(1.0)

    def test_exp_clamp_in_compiled_code(self):
        expr = ast.exp(Var("x"))
        func = compile_expr(expr, [], ["x"])
        assert math.isfinite(func((), (1e9,)))

    def test_shared_subtrees_emitted_once(self):
        shared = ast.mul(Var("x"), Var("x"))
        expr = ast.add(shared, shared)
        source = generate_source([expr], [], ["x"], [])
        # The shared node is memoised: only one multiplication line.
        assert source.count("*") == 1


class TestCompileModel:
    def test_multiple_outputs(self):
        model = compile_model(
            [ast.add(State("a"), Const(1)), ast.mul(State("a"), Const(2))],
            [],
            [],
            ["a"],
        )
        assert model((), (), (3.0,)) == (4.0, 6.0)

    def test_single_output_is_one_tuple(self):
        model = compile_model([Const(5)], [], [], [])
        assert model((), (), ()) == (5.0,)


class TestNaNSemantics:
    def test_min_max_nan_asymmetry_matches_python(self):
        blown = ast.mul(Const(1e300), Const(1e300))
        nan = ast.sub(blown, blown)
        # Python's min/max keep the first argument when a comparison with
        # NaN is False: min(nan, 5) is nan, min(5, nan) is 5.
        for op in (ast.minimum, ast.maximum):
            assert math.isnan(compile_expr(op(nan, Const(5.0)), [], [])((), ()))
            assert compile_expr(op(Const(5.0), nan), [], [])((), ()) == 5.0


class TestKernelCache:
    def test_lru_eviction_and_stats(self):
        cache = LRU(2)
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
        cache = LRU(4)
        calls = []

        def builder():
            calls.append(1)
            return "kernel"

        assert cache.get_or_build("k", builder) == "kernel"
        assert cache.get_or_build("k", builder) == "kernel"
        assert len(calls) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRU(0)
