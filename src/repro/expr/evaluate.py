"""Reference tree-walking interpreter for expression ASTs.

This module defines the *protected* operator semantics that the whole
library relies on; :mod:`repro.expr.compile` generates code that is
behaviourally identical (a property verified by the test suite).

Protected semantics
-------------------
* ``a / b`` returns ``0.0`` when ``|b| < DIV_EPS`` (avoids division blow-ups
  inside evolved models).
* ``log(x)`` returns ``log(|x|)`` and ``0.0`` when ``|x| < LOG_EPS``.
* ``exp(x)`` clamps its argument to ``EXP_MAX`` to avoid overflow.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.expr.ast import BinOp, Const, Expr, Ext, Param, State, UnOp, Var

#: Divisor magnitudes below this evaluate protected division to zero.
DIV_EPS = 1e-12

#: Argument magnitudes below this evaluate protected log to zero.
LOG_EPS = 1e-12

#: Upper clamp on the argument of the protected exponential.
EXP_MAX = 60.0


class EvaluationError(KeyError):
    """Raised when an expression references an unbound name."""


def protected_div(numerator: float, denominator: float) -> float:
    """Protected division: zero when the denominator is (near) zero."""
    if abs(denominator) < DIV_EPS:
        return 0.0
    return numerator / denominator


def protected_log(value: float) -> float:
    """Protected natural log: ``log(|x|)``, zero near zero."""
    magnitude = abs(value)
    if magnitude < LOG_EPS:
        return 0.0
    return math.log(magnitude)


def protected_exp(value: float) -> float:
    """Protected exponential with a clamped argument."""
    if value > EXP_MAX:
        value = EXP_MAX
    return math.exp(value)


def batched_protected_div(numerator, denominator):
    """Vectorised :func:`protected_div` over NumPy arrays.

    Matches the scalar interpreter exactly, element by element: wherever
    ``|denominator| < DIV_EPS`` the result is 0.0 (whatever the
    numerator, including NaN); everywhere else it is the IEEE quotient,
    so NaN/inf operands propagate the same way the scalar path does.
    """
    near_zero = np.abs(denominator) < DIV_EPS
    quotient = np.zeros(np.broadcast_shapes(np.shape(numerator), near_zero.shape))
    return np.divide(numerator, denominator, out=quotient, where=~near_zero)


def _libm_map(function, values: np.ndarray) -> np.ndarray:
    """``function`` applied element by element: libm's result, bit for
    bit (NumPy's vectorised ``exp``/``log`` differ from :mod:`math` in
    the last ulp on a few percent of arguments)."""
    return np.fromiter(
        map(function, values.ravel().tolist()), float, values.size
    ).reshape(values.shape)


def batched_protected_log(value):
    """Vectorised :func:`protected_log`: ``log(|x|)``, zero near zero.

    Near-zero magnitudes are replaced by 1.0 before the log, whose exact
    result is 0.0 -- one ``where`` instead of masking the output too.
    The log itself is libm's, element by element.
    """
    magnitude = np.abs(value)
    return _libm_map(math.log, np.where(magnitude < LOG_EPS, 1.0, magnitude))


def batched_protected_exp(value):
    """Vectorised :func:`protected_exp` with a clamped argument.

    ``np.minimum`` replicates the interpreter's ``if value > EXP_MAX``
    test, including NaN: a NaN argument propagates (``NaN > EXP_MAX`` is
    false in the interpreter, and ``np.minimum`` propagates NaN) instead
    of being clamped.  The exponential itself is libm's, element by
    element.
    """
    return _libm_map(math.exp, np.minimum(value, EXP_MAX))


def batched_min(lhs, rhs):
    """Vectorised Python ``min``: ``rhs if rhs < lhs else lhs``.

    Spelled as the exact comparison Python's ``min`` performs so NaN
    operands select the same side the scalar interpreter would.
    """
    return np.where(np.less(rhs, lhs), rhs, lhs)


def batched_max(lhs, rhs):
    """Vectorised Python ``max``: ``rhs if rhs > lhs else lhs``."""
    return np.where(np.greater(rhs, lhs), rhs, lhs)


def evaluate(
    expr: Expr,
    params: Mapping[str, float] | None = None,
    variables: Mapping[str, float] | None = None,
    states: Mapping[str, float] | None = None,
) -> float:
    """Evaluate ``expr`` under the given bindings.

    Args:
        expr: Expression to evaluate.
        params: Values for :class:`~repro.expr.ast.Param` nodes.
        variables: Values for :class:`~repro.expr.ast.Var` nodes.
        states: Values for :class:`~repro.expr.ast.State` nodes.

    Returns:
        The evaluated value as a float.

    Raises:
        EvaluationError: If a referenced name has no binding.
    """
    params = params or {}
    variables = variables or {}
    states = states or {}
    return _eval(expr, params, variables, states)


def _eval(
    expr: Expr,
    params: Mapping[str, float],
    variables: Mapping[str, float],
    states: Mapping[str, float],
) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        try:
            return float(params[expr.name])
        except KeyError:
            raise EvaluationError(f"unbound parameter {expr.name!r}") from None
    if isinstance(expr, Var):
        try:
            return float(variables[expr.name])
        except KeyError:
            raise EvaluationError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, State):
        try:
            return float(states[expr.name])
        except KeyError:
            raise EvaluationError(f"unbound state {expr.name!r}") from None
    if isinstance(expr, Ext):
        return _eval(expr.operand, params, variables, states)
    if isinstance(expr, UnOp):
        value = _eval(expr.operand, params, variables, states)
        if expr.op == "neg":
            return -value
        if expr.op == "log":
            return protected_log(value)
        if expr.op == "exp":
            return protected_exp(value)
        raise AssertionError(f"unreachable unary op {expr.op!r}")
    if isinstance(expr, BinOp):
        lhs = _eval(expr.lhs, params, variables, states)
        rhs = _eval(expr.rhs, params, variables, states)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            return protected_div(lhs, rhs)
        if expr.op == "min":
            return min(lhs, rhs)
        if expr.op == "max":
            return max(lhs, rhs)
        raise AssertionError(f"unreachable binary op {expr.op!r}")
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")
