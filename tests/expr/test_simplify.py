"""Simplification: identities, constant folding, and soundness; and the
exact structure key the caches use instead of a simplified one."""

import math

import pytest
from hypothesis import given, settings

from repro.expr import ast
from repro.expr.ast import BinOp, Const, Ext, Param, State, Var, exact_key
from repro.expr.evaluate import evaluate
from repro.expr.simplify import simplify
from tests.expr.strategies import bindings, expressions


class TestRewrites:
    def test_constant_folding(self):
        assert simplify(ast.add(Const(2), Const(3))) == Const(5.0)

    def test_folds_protected_division(self):
        assert simplify(ast.div(Const(1), Const(0))) == Const(0.0)

    def test_additive_identity(self):
        assert simplify(ast.add(Var("x"), Const(0))) == Var("x")
        assert simplify(ast.add(Const(0), Var("x"))) == Var("x")

    def test_multiplicative_identity(self):
        assert simplify(ast.mul(Var("x"), Const(1))) == Var("x")

    def test_multiplication_by_zero(self):
        assert simplify(ast.mul(Var("x"), Const(0))) == Const(0.0)

    def test_self_subtraction(self):
        assert simplify(ast.sub(Var("x"), Var("x"))) == Const(0.0)

    def test_double_negation(self):
        assert simplify(ast.neg(ast.neg(Var("x")))) == Var("x")

    def test_min_of_identical_operands(self):
        assert simplify(BinOp("min", Var("x"), Var("x"))) == Var("x")

    def test_ext_markers_are_stripped(self):
        expr = Ext("Ext1", ast.add(Var("x"), Const(0)))
        assert simplify(expr) == Var("x")

    def test_nested_folding(self):
        expr = ast.mul(ast.add(Const(1), Const(1)), ast.add(Var("x"), Const(0)))
        assert simplify(expr) == ast.mul(Const(2.0), Var("x"))

    def test_unary_constant_folding(self):
        assert simplify(ast.exp(Const(0))) == Const(1.0)
        assert simplify(ast.log(Const(math.e))).value == pytest.approx(1.0)


class TestCanonicalKey:
    """The key of one tree (:func:`repro.expr.ast.exact_key`): equal only
    for the same tree up to ``Ext`` markers, with no operand reordering,
    reassociation or simplification, since each of those can change a
    value's bits (``min(a, NaN)`` is ``a``, ``min(NaN, a)`` is NaN)."""

    @pytest.mark.parametrize("op", ["+", "*", "min", "max"])
    def test_commutative_operand_order_is_kept(self, op):
        left = BinOp(op, Var("a"), Var("b"))
        right = BinOp(op, Var("b"), Var("a"))
        assert exact_key(left) != exact_key(right)

    def test_association_is_kept(self):
        left = ast.add(ast.add(Var("a"), Var("b")), Var("c"))
        right = ast.add(Var("a"), ast.add(Var("b"), Var("c")))
        assert exact_key(left) != exact_key(right)

    def test_non_commutative_order_matters(self):
        assert exact_key(ast.sub(Var("a"), Var("b"))) != exact_key(
            ast.sub(Var("b"), Var("a"))
        )

    def test_simplifiable_forms_keep_their_own_key(self):
        assert exact_key(ast.mul(Var("x"), Const(1))) != exact_key(Var("x"))

    def test_ext_markers_are_dropped(self):
        inner = ast.mul(Param("a"), State("B"))
        assert exact_key(Ext("Ext1", inner)) == exact_key(inner)

    def test_different_params_differ(self):
        assert exact_key(Param("a")) != exact_key(Param("b"))

    def test_constants_differing_in_the_last_digits_keep_their_kernels(self):
        """Kernels are shared by structure key: two models whose constants
        agree to 12 digits, compiled in one process without clearing the
        kernel cache, must each run their own constant."""
        from repro.dynamics.system import ProcessModel

        values = (1.0000000000001, 1.0000000000004)
        models = [
            ProcessModel.from_equations(
                {"B": ast.mul(Const(value), State("B"))}, var_order=()
            )
            for value in values
        ]
        assert models[0].structure_key() != models[1].structure_key()
        for model, value in zip(models, values):
            assert model.compiled()((), (), (1.0,)) == (value,)


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(expressions(), bindings())
    def test_simplify_preserves_semantics(self, expr, binds):
        params, variables, states = binds
        original = evaluate(expr, params, variables, states)
        reduced = evaluate(simplify(expr), params, variables, states)
        if math.isnan(original):
            assert math.isnan(reduced)
        elif math.isinf(original):
            assert reduced == original
        else:
            assert reduced == pytest.approx(original, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(expressions())
    def test_simplify_never_grows_the_tree(self, expr):
        assert simplify(expr).size <= expr.size

    @settings(max_examples=100, deadline=None)
    @given(expressions())
    def test_simplify_is_idempotent(self, expr):
        once = simplify(expr)
        assert simplify(once) == once
