"""Algebraic simplification and canonicalisation of expression ASTs.

The GP tree cache (:mod:`repro.gp.cache`) keys evaluations on a *canonical*
form of the expression, so that algebraically identical individuals share a
cache slot.  The paper (Section III-D) notes that simplifying trees before
evaluation raises the cache hit rate; this module provides both the
semantics-preserving rewriter (:func:`simplify`) and the order-insensitive
key (:func:`canonical_key`).

Simplification is conservative: every rewrite preserves the protected
operator semantics of :mod:`repro.expr.evaluate` exactly (verified by
property-based tests), so a simplified tree can be evaluated in place of the
original.
"""

from __future__ import annotations

import math

from repro.expr.ast import (
    COMMUTATIVE_OPS,
    BinOp,
    Const,
    Expr,
    Ext,
    Param,
    State,
    UnOp,
    Var,
)
from repro.expr.evaluate import (
    protected_div,
    protected_exp,
    protected_log,
)


def simplify(expr: Expr) -> Expr:
    """Return a semantics-preserving simplified form of ``expr``.

    Applied rewrites: constant folding, additive/multiplicative identity
    elimination, double negation, ``Ext`` marker stripping (they are
    identities), and -- only where the dropped operand is provably finite
    (:func:`_finite_safe`) -- multiplication by zero and ``x - x -> 0``.
    Zero signs may differ (``x * 0`` can be ``-0.0``); nothing downstream
    distinguishes ``-0.0`` from ``0.0``.
    """
    if isinstance(expr, Ext):
        return simplify(expr.operand)

    kids = expr.children()
    if not kids:
        return expr

    simplified = tuple(simplify(child) for child in kids)
    node = expr.with_children(simplified)

    if isinstance(node, UnOp):
        return _simplify_unary(node)
    if isinstance(node, BinOp):
        return _simplify_binary(node)
    return node


def _simplify_unary(node: UnOp) -> Expr:
    operand = node.operand
    if isinstance(operand, Const):
        if node.op == "neg":
            return Const(-operand.value)
        if node.op == "log":
            return Const(protected_log(operand.value))
        if node.op == "exp":
            return Const(protected_exp(operand.value))
    if node.op == "neg" and isinstance(operand, UnOp) and operand.op == "neg":
        return operand.operand
    return node


def _simplify_binary(node: BinOp) -> Expr:
    lhs, rhs = node.lhs, node.rhs
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return Const(_fold_const(node.op, lhs.value, rhs.value))

    if node.op == "+":
        if _is_const(lhs, 0.0):
            return rhs
        if _is_const(rhs, 0.0):
            return lhs
    elif node.op == "-":
        if _is_const(rhs, 0.0):
            return lhs
        if lhs == rhs and _finite_safe(lhs):
            return Const(0.0)
    elif node.op == "*":
        if _is_const(lhs, 1.0):
            return rhs
        if _is_const(rhs, 1.0):
            return lhs
        if _is_const(lhs, 0.0) and _finite_safe(rhs):
            return Const(0.0)
        if _is_const(rhs, 0.0) and _finite_safe(lhs):
            return Const(0.0)
    elif node.op == "/":
        if _is_const(rhs, 1.0):
            return lhs
        if _is_const(lhs, 0.0) and _finite_safe(rhs):
            return Const(0.0)
    elif node.op in ("min", "max"):
        if lhs == rhs:
            return lhs
    return node


def _fold_const(op: str, lhs: float, rhs: float) -> float:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return protected_div(lhs, rhs)
    if op == "min":
        return min(lhs, rhs)
    if op == "max":
        return max(lhs, rhs)
    raise AssertionError(f"unreachable binary op {op!r}")


def _is_const(expr: Expr, value: float) -> bool:
    return isinstance(expr, Const) and expr.value == value


def _finite_safe(expr: Expr) -> bool:
    """Whether ``expr`` evaluates to a finite value for every *finite*
    leaf binding (the engine only ever binds finite values).

    Guards the annihilating rewrites (``x * 0 -> 0``, ``x - x -> 0``,
    ``0 / x -> 0``): they change semantics when the dropped operand can
    reach inf or NaN internally (``inf * 0`` is NaN, ``inf - inf`` is
    NaN, ``0 / NaN`` is NaN).  Leaves are finite by contract; neg, the
    protected log/exp, and min/max preserve finiteness; ``+``, ``-``,
    ``*``, ``/`` can overflow to inf and are not assumed safe.
    """
    if isinstance(expr, Const):
        return math.isfinite(expr.value)
    if isinstance(expr, (Param, State, Var)):
        return True
    if isinstance(expr, Ext):
        return _finite_safe(expr.operand)
    if isinstance(expr, UnOp):
        return _finite_safe(expr.operand)
    if isinstance(expr, BinOp) and expr.op in ("min", "max"):
        return _finite_safe(expr.lhs) and _finite_safe(expr.rhs)
    return False


def canonical_key(expr: Expr) -> str:
    """Return a canonical string key for ``expr``.

    The key is invariant under operand order of commutative operators and
    under ``Ext`` markers, and is computed on the simplified tree, so that
    algebraically equal-by-rewrite expressions map to the same key.  It is
    *not* a full decision procedure for algebraic equality.  Constants print
    with ``repr``, which round-trips, so trees that differ in a constant's
    last digit keep distinct keys.  Equal keys do *not* imply bit-equal
    values: chains of one commutative operator are flattened, so
    ``(p + q) + B`` and ``p + (q + B)`` share a key although float
    addition is not associative (at ``p = 1e16``, ``q = B = 1`` they give
    ``1e16`` and ``1.0000000000000002e16``).
    """
    return _key(simplify(expr))


def _key(expr: Expr) -> str:
    if isinstance(expr, Ext):
        return _key(expr.operand)
    if isinstance(expr, BinOp):
        if expr.op in COMMUTATIVE_OPS:
            operands = sorted(_flatten(expr, expr.op))
            return f"({expr.op} {' '.join(operands)})"
        return f"({expr.op} {_key(expr.lhs)} {_key(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op} {_key(expr.operand)})"
    if isinstance(expr, Const):
        return repr(expr.value)
    return f"{type(expr).__name__}:{expr}"


def _flatten(expr: BinOp, op: str) -> list[str]:
    """Collect keys of a maximal same-operator commutative subtree."""
    keys: list[str] = []
    for side in (expr.lhs, expr.rhs):
        inner = side
        while isinstance(inner, Ext):
            inner = inner.operand
        if isinstance(inner, BinOp) and inner.op == op:
            keys.extend(_flatten(inner, op))
        else:
            keys.append(_key(inner))
    return keys
