"""Expression AST for dynamic-process models.

Expressions are immutable trees built from a small vocabulary:

* :class:`Const` -- a numeric literal.
* :class:`Param` -- a named constant parameter (``CUA``, ``R_3``, ...) whose
  value is supplied at evaluation time from a parameter assignment.
* :class:`Var` -- a named exogenous driver variable (``Vtmp``, ``Vlgt``, ...)
  whose value is read from the observed data at the current time step.
* :class:`State` -- a named state variable of the dynamic system
  (``BPhy``, ``BZoo``).
* :class:`BinOp` / :class:`UnOp` -- operators with *protected* semantics
  (see :mod:`repro.expr.evaluate`), so that any expression evaluates to a
  finite float for finite inputs.
* :class:`Ext` -- a transparent marker wrapping a subexpression.  Markers
  carry the name of a revision extension point (``Ext1`` ... ``Ext9``) and
  have identity semantics; they exist so that the TAG layer can locate the
  subprocesses that prior knowledge declares revisable.

The module deliberately contains no evaluation logic; see
:mod:`repro.expr.evaluate` (interpreter) and :mod:`repro.expr.compile`
(runtime compilation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

#: Binary operators understood by the evaluator and compiler.
BINARY_OPS = ("+", "-", "*", "/", "min", "max")

#: Unary operators understood by the evaluator and compiler.
UNARY_OPS = ("neg", "log", "exp")

class ExprError(ValueError):
    """Raised for structurally invalid expressions."""


@dataclass(frozen=True)
class Expr:
    """Base class of all expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        """Return the child expressions of this node."""
        return ()

    def with_children(self, children: tuple["Expr", ...]) -> "Expr":
        """Return a copy of this node with ``children`` substituted."""
        if children:
            raise ExprError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    @property
    def size(self) -> int:
        """Number of nodes in the expression tree."""
        return sum(1 for _ in self.walk())

    @property
    def depth(self) -> int:
        """Height of the expression tree (a leaf has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth for child in kids)


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def __str__(self) -> str:
        return format(self.value, "g")


@dataclass(frozen=True)
class Param(Expr):
    """A named constant parameter, bound by a parameter assignment."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var(Expr):
    """A named exogenous (driver) variable read from observed data."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class State(Expr):
    """A named state variable of the dynamic system."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation with protected semantics."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ExprError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def with_children(self, children: tuple[Expr, ...]) -> "BinOp":
        lhs, rhs = children
        return BinOp(self.op, lhs, rhs)

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.lhs}, {self.rhs})"
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation with protected semantics."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ExprError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expr, ...]) -> "UnOp":
        (operand,) = children
        return UnOp(self.op, operand)

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.operand})"
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Ext(Expr):
    """A transparent extension-point marker around a subprocess.

    ``name`` identifies the revision point (e.g. ``"Ext1"``).  Evaluation
    treats the marker as the identity function.
    """

    name: str
    operand: Expr = field(default_factory=lambda: Const(0.0))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expr, ...]) -> "Ext":
        (operand,) = children
        return Ext(self.name, operand)

    def __str__(self) -> str:
        return f"{{{self.operand}}}@{self.name}"


def add(lhs: Expr, rhs: Expr) -> BinOp:
    """Build ``lhs + rhs``."""
    return BinOp("+", lhs, rhs)


def sub(lhs: Expr, rhs: Expr) -> BinOp:
    """Build ``lhs - rhs``."""
    return BinOp("-", lhs, rhs)


def mul(lhs: Expr, rhs: Expr) -> BinOp:
    """Build ``lhs * rhs``."""
    return BinOp("*", lhs, rhs)


def div(lhs: Expr, rhs: Expr) -> BinOp:
    """Build the protected division ``lhs / rhs``."""
    return BinOp("/", lhs, rhs)


def minimum(*operands: Expr) -> Expr:
    """Build an n-ary minimum as a chain of binary ``min`` nodes."""
    return _fold("min", operands)


def maximum(*operands: Expr) -> Expr:
    """Build an n-ary maximum as a chain of binary ``max`` nodes."""
    return _fold("max", operands)


def _fold(op: str, operands: tuple[Expr, ...]) -> Expr:
    if not operands:
        raise ExprError(f"{op} requires at least one operand")
    result = operands[0]
    for operand in operands[1:]:
        result = BinOp(op, result, operand)
    return result


def exp(operand: Expr) -> UnOp:
    """Build the protected exponential of ``operand``."""
    return UnOp("exp", operand)


def log(operand: Expr) -> UnOp:
    """Build the protected natural logarithm of ``operand``."""
    return UnOp("log", operand)


def neg(operand: Expr) -> UnOp:
    """Build the negation of ``operand``."""
    return UnOp("neg", operand)


def strip_ext(expr: Expr) -> Expr:
    """Return ``expr`` with every :class:`Ext` marker removed."""
    if isinstance(expr, Ext):
        return strip_ext(expr.operand)
    kids = expr.children()
    if not kids:
        return expr
    new_kids = tuple(strip_ext(child) for child in kids)
    if new_kids == kids:
        return expr
    return expr.with_children(new_kids)


def exact_key(expr: Expr) -> str:
    """A string naming ``expr`` exactly, up to :class:`Ext` markers.

    Operands keep their order, nothing is simplified and constants print
    with ``repr`` (which round-trips), so two trees with one key lower to
    the same source (under the same name orders) and evaluate to the same
    bits under every binding.
    Kernels, tree-cache results and triage verdicts are shared on it
    (:meth:`repro.dynamics.system.ProcessModel.structure_key`).
    """
    if isinstance(expr, Ext):
        return exact_key(expr.operand)
    if isinstance(expr, BinOp):
        return f"({expr.op} {exact_key(expr.lhs)} {exact_key(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op} {exact_key(expr.operand)})"
    if isinstance(expr, Const):
        return repr(expr.value)
    return f"{type(expr).__name__}:{expr}"


def free_params(expr: Expr) -> set[str]:
    """Return the names of all :class:`Param` nodes in ``expr``."""
    return {node.name for node in expr.walk() if isinstance(node, Param)}


def free_vars(expr: Expr) -> set[str]:
    """Return the names of all :class:`Var` nodes in ``expr``."""
    return {node.name for node in expr.walk() if isinstance(node, Var)}


def free_states(expr: Expr) -> set[str]:
    """Return the names of all :class:`State` nodes in ``expr``."""
    return {node.name for node in expr.walk() if isinstance(node, State)}


def ext_points(expr: Expr) -> dict[str, Ext]:
    """Return a mapping from extension-point name to its marker node."""
    points: dict[str, Ext] = {}
    for node in expr.walk():
        if isinstance(node, Ext):
            if node.name in points:
                raise ExprError(f"duplicate extension point {node.name!r}")
            points[node.name] = node
    return points


def substitute(expr: Expr, replacements: dict[str, Expr]) -> Expr:
    """Replace :class:`Param` nodes by name with the given expressions.

    Useful for inlining intermediate definitions when building seed models.
    """
    if isinstance(expr, Param) and expr.name in replacements:
        return replacements[expr.name]
    kids = expr.children()
    if not kids:
        return expr
    new_kids = tuple(substitute(child, replacements) for child in kids)
    if new_kids == kids:
        return expr
    return expr.with_children(new_kids)
