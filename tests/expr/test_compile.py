"""Runtime compilation: correctness and equivalence with the interpreter."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.compile import (
    CompilationError,
    compile_expr,
    compile_model,
    compile_station_kernel,
    generate_source,
)
from repro.expr.evaluate import evaluate
from tests.expr.strategies import (
    PARAM_NAMES,
    STATE_NAMES,
    VAR_NAMES,
    bindings,
    expressions,
)


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


class TestEquivalenceWithInterpreter:
    @settings(max_examples=200, deadline=None)
    @given(expressions(), bindings())
    def test_compiled_matches_interpreted(self, expr, binds):
        params, variables, states = binds
        interpreted = evaluate(expr, params, variables, states)
        func = compile_expr(
            expr, PARAM_NAMES, VAR_NAMES, STATE_NAMES
        )
        compiled = func(
            tuple(params[n] for n in PARAM_NAMES),
            tuple(variables[n] for n in VAR_NAMES),
            tuple(states[n] for n in STATE_NAMES),
        )
        if math.isnan(interpreted):
            assert math.isnan(compiled)
        elif math.isinf(interpreted):
            assert compiled == interpreted
        else:
            assert compiled == pytest.approx(interpreted, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(expressions(), bindings())
    def test_station_kernel_matches_scalar_step(self, expr, binds):
        """The station form (``make`` -> ``hoist`` -> ``station``) over a
        multi-row driver block of two stations equals the scalar step
        bit for bit, NaN positions included."""
        params, variables, states = binds
        orders = (PARAM_NAMES, VAR_NAMES, STATE_NAMES)
        step = compile_model([expr], *orders)
        kernel = compile_station_kernel([expr], *orders)
        v0, v1 = (variables[name] for name in VAR_NAMES)
        rows = [
            (v0, v1),
            (-v1, v0),
            (v0 * 1e303, v1 * 1e303),
            (math.nan, v1),
            (0.0, -0.0),
            # Moderate drivers, where NumPy's exp/log can differ from
            # libm's in the last ulp.
            *((v0 * 1e-6 + k / 7, v1 * 1e-6 - k / 5) for k in range(1, 17)),
        ]
        # Station 0 reads the rows in order, station 1 in reverse with
        # the two drivers swapped.
        blocks = [rows, [(b, a) for a, b in reversed(rows)]]
        P = tuple(params[name] for name in PARAM_NAMES)
        S = tuple(states[name] for name in STATE_NAMES)
        hoist, station = kernel.make(P)
        frontier = hoist(np.array(blocks).transpose(2, 0, 1))
        for block, station_rows in zip(blocks, frontier):
            for row, F in zip(block, station_rows):
                assert bits(station(F, *S)) == bits(step(P, row, S))


def bits(values) -> list[bytes | None]:
    """Exact bit patterns, with every NaN mapped to one marker."""
    return [
        None if math.isnan(value) else struct.pack("<d", value)
        for value in values
    ]


class TestNaNCorners:
    """The compiled kernel must mirror the interpreter on NaN operands.

    Regression tests: the scalar codegen once put the protected branch
    on the `else` side of its conditionals, so NaN-poisoned comparisons
    (always False) silently *rescued* divergent candidates -- log(NaN)
    compiled to 0.0 while the interpreter propagated NaN.
    """

    HUGE = Const(1e300)

    def _nan_expr(self):
        # inf - inf: the canonical provably-NaN subexpression.
        blown = ast.mul(self.HUGE, self.HUGE)
        return ast.sub(blown, blown)

    @pytest.mark.parametrize(
        "wrap",
        [
            ast.log,
            ast.exp,
            lambda e: ast.div(Const(1.0), e),
            lambda e: ast.div(e, Const(2.0)),
            lambda e: ast.minimum(e, Const(5.0)),
            lambda e: ast.minimum(Const(5.0), e),
            lambda e: ast.maximum(e, Const(5.0)),
            lambda e: ast.maximum(Const(5.0), e),
            lambda e: ast.add(e, Const(1.0)),
        ],
        ids=[
            "log",
            "exp",
            "div-nan-denominator",
            "div-nan-numerator",
            "min-nan-lhs",
            "min-nan-rhs",
            "max-nan-lhs",
            "max-nan-rhs",
            "add",
        ],
    )
    def test_compiled_matches_interpreted_on_nan(self, wrap):
        expr = wrap(self._nan_expr())
        interpreted = evaluate(expr)
        compiled = compile_expr(expr, [], [])((), ())
        if math.isnan(interpreted):
            assert math.isnan(compiled)
        else:
            assert compiled == interpreted

    def test_min_max_nan_asymmetry_matches_python(self):
        nan = self._nan_expr()
        # Python's min/max keep the first argument when a comparison with
        # NaN is False: min(nan, 5) is nan, min(5, nan) is 5.
        assert math.isnan(
            compile_expr(ast.minimum(nan, Const(5.0)), [], [])((), ())
        )
        assert compile_expr(
            ast.minimum(Const(5.0), nan), [], []
        )((), ()) == 5.0
        assert math.isnan(
            compile_expr(ast.maximum(nan, Const(5.0)), [], [])((), ())
        )
        assert compile_expr(
            ast.maximum(Const(5.0), nan), [], []
        )((), ()) == 5.0
