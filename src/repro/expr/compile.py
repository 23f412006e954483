"""Runtime compilation of expression ASTs to Python functions.

The paper evaluates evolved models with *runtime compilation* (tree ->
source -> G++ -> dynamically loaded object).  We reproduce the same code
path in Python: the AST is lowered to straight-line Python source (one
assignment per node, so protected-operator guards never duplicate work),
compiled once with :func:`compile`, and the resulting function is reused
for every time step of every simulation.

Compiled functions take positional tuples rather than name lookups --
the orderings of parameters, driver variables, and states are baked into
the generated source, which is what makes the compiled path fast.

The compiler and the reference interpreter in :mod:`repro.expr.evaluate`
implement identical protected semantics; the property-based test suite
checks them against each other on random expressions.

Three kernel forms are emitted from the same lowering pass:

* the **scalar** form (:func:`compile_model`) steps one candidate at a
  time through plain Python floats, and
* the **batched** form (:func:`compile_model_batched`) evaluates K
  parameter columns at once through NumPy: ``P`` is an ``(n_params, K)``
  matrix, ``S`` an ``(n_states, K)`` state matrix, and every protected
  operator is the vectorised twin of the interpreter's
  (:func:`repro.expr.evaluate.batched_protected_div` and friends), so a
  batched step agrees with K scalar steps to float tolerance, and
* the **cohort** form (:func:`compile_model_cohort`) fuses M distinct
  structures into one kernel over ``M * K`` padded lanes: every member's
  subexpressions are evaluated over the full fused width through a
  cohort-wide value-numbering table, so positionally identical
  subexpressions of *different* structures are computed once, and each
  member's results are written only to its own lane slice.

Compilation cost is paid once per structure per process: kernels are
memoised in a bounded process-global LRU (:data:`KERNEL_CACHE`), which
worker processes repopulate lazily after pickling (exec-generated
functions cannot cross process boundaries).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.expr.ast import BinOp, Const, Expr, Ext, Param, State, UnOp, Var
from repro.expr.evaluate import (
    DIV_EPS,
    EXP_MAX,
    LOG_EPS,
    batched_max,
    batched_min,
    batched_protected_div,
    batched_protected_exp,
    batched_protected_log,
)
from repro.obs.metrics import MetricsRegistry, publish_fields

#: Signature of a compiled single-expression function.
CompiledExpr = Callable[[Sequence[float], Sequence[float], Sequence[float]], float]

#: Signature of a compiled multi-output (model step) function.
CompiledModel = Callable[
    [Sequence[float], Sequence[float], Sequence[float]], tuple[float, ...]
]

class CompiledBatchedModel:
    """A two-phase batched step kernel over K parameter columns.

    Euler integration is sequential in the state, but every temporary
    that depends only on parameters and drivers is constant across the
    rollout (parameters) or known for all T rows up front (drivers).
    :meth:`precompute` evaluates those hoisted temporaries for an entire
    ``(T, n_vars)`` driver table in one vectorised pass; :meth:`step`
    then computes just the state-dependent remainder for one row, which
    cuts the per-step NumPy call count by the hoisted fraction of the
    model.

    Calling the kernel directly as ``kernel(P, V, S)`` with a single
    driver row ``V`` of shape ``(n_vars,)`` runs both phases for that
    row -- the convenient form for tests and one-off evaluations.
    """

    __slots__ = ("_precompute_fn", "_step_fn", "source", "n_hoisted")

    def __init__(
        self,
        precompute_fn: Callable,
        step_fn: Callable,
        source: str,
        n_hoisted: int,
    ) -> None:
        self._precompute_fn = precompute_fn
        self._step_fn = step_fn
        self.source = source
        self.n_hoisted = n_hoisted

    def precompute(self, params: np.ndarray, driver_table: np.ndarray) -> tuple:
        """Hoisted temporaries for all rows of ``driver_table``.

        Each element is an array whose leading axis indexes the table's
        rows; pass the tuple to :meth:`step` with the row offset.
        """
        return self._precompute_fn(params, driver_table)

    def step(
        self, params: np.ndarray, hoisted: tuple, row: int, states: np.ndarray
    ) -> np.ndarray:
        """One derivative step: ``(n_states, K)`` for driver row ``row``."""
        return self._step_fn(params, hoisted, row, states)

    def __call__(
        self, params: np.ndarray, driver_row: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        table = np.asarray(driver_row, dtype=float).reshape(1, -1)
        return self._step_fn(params, self._precompute_fn(params, table), 0, states)


class CompiledCohortKernel(CompiledBatchedModel):
    """A fused step kernel integrating several structures side by side.

    The cohort form generalises the batched kernel from one structure's
    K parameter columns to M structures × K lanes: parameter matrix
    ``P`` has shape ``(n_params, M * K)`` (rows follow each member's own
    ``param_order`` within its lane block, unused rows are ignored) and
    the state matrix ``S`` has shape ``(n_states, M * K)``.  Member
    ``m`` owns lanes ``[m * K, (m + 1) * K)``; every subexpression is
    evaluated over the *full* fused width, so positionally identical
    subexpressions of different members collapse to one temp under value
    numbering -- the lanes a member does not own carry other members'
    values (or garbage) and are never written to its output slice.
    """

    __slots__ = ("n_members", "lanes_per_member", "n_params", "n_states")

    def __init__(
        self,
        precompute_fn: Callable,
        step_fn: Callable,
        source: str,
        n_hoisted: int,
        n_members: int,
        lanes_per_member: int,
        n_params: int,
        n_states: int,
    ) -> None:
        super().__init__(precompute_fn, step_fn, source, n_hoisted)
        self.n_members = n_members
        self.lanes_per_member = lanes_per_member
        self.n_params = n_params
        self.n_states = n_states

    @property
    def width(self) -> int:
        """Total fused lane count ``n_members * lanes_per_member``."""
        return self.n_members * self.lanes_per_member


class CompilationError(ValueError):
    """Raised when an expression cannot be lowered to source."""


class _Emitter:
    """Lowers expression trees to straight-line Python assignments."""

    def __init__(
        self,
        param_order: Sequence[str],
        var_order: Sequence[str],
        state_order: Sequence[str],
        prefix: str = "t",
    ) -> None:
        self._param_index = {name: i for i, name in enumerate(param_order)}
        self._var_index = {name: i for i, name in enumerate(var_order)}
        self._state_index = {name: i for i, name in enumerate(state_order)}
        self.lines: list[str] = []
        self._prefix = prefix
        self._counter = 0
        self._memo: dict[int, str] = {}
        self._values: dict[str, str] = {}

    def _fresh(self) -> str:
        name = f"{self._prefix}{self._counter}"
        self._counter += 1
        return name

    def _assign(self, rhs: str) -> str:
        # Value numbering: every emitted rhs is a pure expression over
        # SSA temps, so textually identical rhs compute identical values
        # and structurally repeated subtrees collapse to one temp.
        cached = self._values.get(rhs)
        if cached is not None:
            return cached
        name = self._fresh()
        self.lines.append(f"    {name} = {rhs}")
        self._values[rhs] = name
        return name

    def emit(self, expr: Expr) -> str:
        """Emit assignments computing ``expr``; return its temp name."""
        memo_key = id(expr)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        name = self._emit(expr)
        self._memo[memo_key] = name
        return name

    def _emit(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return self._assign(repr(expr.value))
        if isinstance(expr, Param):
            index = self._lookup(self._param_index, expr.name, "parameter")
            return self._assign(f"P[{index}]")
        if isinstance(expr, Var):
            index = self._lookup(self._var_index, expr.name, "variable")
            return self._assign(f"V[{index}]")
        if isinstance(expr, State):
            index = self._lookup(self._state_index, expr.name, "state")
            return self._assign(f"S[{index}]")
        if isinstance(expr, Ext):
            return self.emit(expr.operand)
        if isinstance(expr, UnOp):
            operand = self.emit(expr.operand)
            return self._emit_unary(expr.op, operand)
        if isinstance(expr, BinOp):
            lhs = self.emit(expr.lhs)
            rhs = self.emit(expr.rhs)
            return self._emit_binary(expr.op, lhs, rhs)
        raise CompilationError(f"cannot compile node type {type(expr).__name__}")

    @staticmethod
    def _lookup(index: dict[str, int], name: str, kind: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise CompilationError(f"unbound {kind} {name!r}") from None

    # Every guard below keeps the *protected* branch on the `if` side of
    # the conditional, mirroring the interpreter's comparison direction.
    # The directions matter for NaN operands (any comparison with NaN is
    # False): ``0.0 if m < eps else x / y`` propagates a NaN denominator
    # like protected_div does, while the flipped spelling
    # ``x / y if m >= eps else 0.0`` would silently map it to 0.0.

    def _emit_unary(self, op: str, operand: str) -> str:
        if op == "neg":
            return self._assign(f"-{operand}")
        if op == "exp":
            clamped = self._assign(
                f"{EXP_MAX!r} if {operand} > {EXP_MAX!r} else {operand}"
            )
            return self._assign(f"_exp({clamped})")
        if op == "log":
            magnitude = self._assign(
                f"{operand} if {operand} >= 0.0 else -{operand}"
            )
            return self._assign(
                f"0.0 if {magnitude} < {LOG_EPS!r} else _log({magnitude})"
            )
        raise CompilationError(f"unknown unary operator {op!r}")

    def _emit_binary(self, op: str, lhs: str, rhs: str) -> str:
        if op in ("+", "-", "*"):
            return self._assign(f"{lhs} {op} {rhs}")
        if op == "/":
            magnitude = self._assign(f"{rhs} if {rhs} >= 0.0 else -{rhs}")
            return self._assign(
                f"0.0 if {magnitude} < {DIV_EPS!r} else {lhs} / {rhs}"
            )
        # Python's min/max return the *first* argument on ties and on any
        # NaN-poisoned comparison; spell out the exact builtin semantics.
        if op == "min":
            return self._assign(f"{rhs} if {rhs} < {lhs} else {lhs}")
        if op == "max":
            return self._assign(f"{rhs} if {rhs} > {lhs} else {lhs}")
        raise CompilationError(f"unknown binary operator {op!r}")


def generate_source(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
    name: str = "_compiled",
) -> str:
    """Generate Python source for a function computing ``exprs``.

    The generated function has the signature ``f(P, V, S)`` and returns a
    tuple with one value per expression (or a bare float for a single
    expression, see :func:`compile_expr`).
    """
    emitter = _Emitter(param_order, var_order, state_order)
    results = [emitter.emit(expr) for expr in exprs]
    header = f"def {name}(P, V, S):"
    returns = "    return (" + ", ".join(results) + ("," if len(results) == 1 else "") + ")"
    return "\n".join([header, *emitter.lines, returns])


def _compile_source(
    source: str, name: str, namespace: dict[str, Any] | None = None
) -> Callable:
    if namespace is None:
        namespace = {"_exp": math.exp, "_log": math.log}
    code = compile(source, filename=f"<repro:{name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from our own AST only
    return namespace[name]


def compile_expr(
    expr: Expr,
    param_order: Sequence[str],
    var_order: Sequence[str] = (),
    state_order: Sequence[str] = (),
) -> CompiledExpr:
    """Compile a single expression to a function ``f(P, V, S) -> float``."""
    source = generate_source([expr], param_order, var_order, state_order)
    tupled = _compile_source(source, "_compiled")

    def scalar(P: Sequence[float], V: Sequence[float] = (), S: Sequence[float] = ()) -> float:
        return tupled(P, V, S)[0]

    scalar.source = source  # type: ignore[attr-defined]
    return scalar


def compile_model(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> CompiledModel:
    """Compile several expressions into one function returning a tuple.

    This is the *model step* form used by the dynamic-system simulator:
    one output per state derivative, all sharing the emitted temporaries.
    """
    source = generate_source(exprs, param_order, var_order, state_order)
    func = _compile_source(source, "_compiled")
    func.source = source  # type: ignore[attr-defined]
    return func


#: Dependency bits of an expression: which leaf kinds it reads.
_DEP_P, _DEP_V, _DEP_S = 1, 2, 4


def _dep_mask(expr: Expr, memo: dict[int, int]) -> int:
    """The dependency bits of ``expr``, memoised by node identity."""
    key = id(expr)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(expr, Const):
        mask = 0
    elif isinstance(expr, Param):
        mask = _DEP_P
    elif isinstance(expr, Var):
        mask = _DEP_V
    elif isinstance(expr, State):
        mask = _DEP_S
    elif isinstance(expr, (Ext, UnOp)):
        mask = _dep_mask(expr.operand, memo)
    elif isinstance(expr, BinOp):
        mask = _dep_mask(expr.lhs, memo) | _dep_mask(expr.rhs, memo)
    else:
        raise CompilationError(
            f"cannot compile node type {type(expr).__name__}"
        )
    memo[key] = mask
    return mask


class _BatchedEmitter:
    """Lowers expression trees to two-phase NumPy source.

    Temporaries that depend on drivers but not on state are *hoisted*:
    the precompute function evaluates them for every time row at once
    over the full ``(T, n_vars)`` driver table (``VT[:, i:i+1]`` columns
    broadcast against ``(K,)`` parameter rows into ``(T, K)`` arrays),
    and the step function only extracts their current row from the
    hoisted tuple ``C`` and evaluates the state-dependent remainder.
    Protected operators route through the vectorised helpers of
    :mod:`repro.expr.evaluate` in both phases, so the batched semantics
    stay defined in exactly one place.  A parameter-only subtree feeding
    a hoisted temporary is re-emitted into the precompute stream; both
    streams apply the scalar emitter's value numbering independently.

    One emitter can lower several structures (a cohort) in sequence into
    a *single* pair of streams: :meth:`begin_member` switches to the next
    member.  The per-stream value tables, the hoisted-temporary registry
    and the temp counter persist across members, so a subexpression that
    is positionally identical in two members (same parameter/state/driver
    indices, same operators) is computed once over the full fused width.
    Only the identity memos and the parameter index mapping are
    member-local: each member's ``param_order`` maps its own names onto
    the shared ``P`` rows, and expression objects must never inherit a
    temp emitted under another member's parameter mapping.
    """

    def __init__(
        self, var_order: Sequence[str], state_order: Sequence[str]
    ) -> None:
        self._var_index = {name: i for i, name in enumerate(var_order)}
        self._state_index = {name: i for i, name in enumerate(state_order)}
        self.pre_lines: list[str] = []
        self.step_lines: list[str] = []
        self._counter = 0
        self._pre_values: dict[str, str] = {}
        self._step_values: dict[str, str] = {}
        self._rows: dict[str, str] = {}
        #: Hoisted temp names in precompute-return order.
        self.hoisted: list[str] = []
        #: Temps whose trailing axis spans the full column width.  Temps
        #: built from constants and drivers alone stay scalar or
        #: ``(1,)``-shaped and only *broadcast* against the K columns;
        #: callers that slice a temp column-wise (the cohort form's
        #: partial output writes) must consult this set, because slicing
        #: a narrow temp would misalign it.
        self._wide: set[str] = set()

    def begin_member(self, param_order: Sequence[str]) -> None:
        """Switch to the next member's parameter mapping."""
        self._param_index = {name: i for i, name in enumerate(param_order)}
        self._pre_memo: dict[int, str] = {}
        self._step_memo: dict[int, str] = {}
        self._dep_memo: dict[int, int] = {}

    def _assign(self, lines: list[str], values: dict[str, str], rhs: str) -> str:
        # Value numbering, per stream: every rhs is a pure expression
        # over earlier temps, so identical rhs share one temp.
        cached = values.get(rhs)
        if cached is not None:
            return cached
        name = f"t{self._counter}"
        self._counter += 1
        lines.append(f"    {name} = {rhs}")
        values[rhs] = name
        return name

    @staticmethod
    def _unary_rhs(op: str, operand: str) -> str:
        if op == "neg":
            return f"-{operand}"
        if op == "exp":
            return f"_pexp({operand})"
        if op == "log":
            return f"_plog({operand})"
        raise CompilationError(f"unknown unary operator {op!r}")

    @staticmethod
    def _binary_rhs(op: str, lhs: str, rhs: str) -> str:
        if op in ("+", "-", "*"):
            return f"{lhs} {op} {rhs}"
        if op == "/":
            return f"_pdiv({lhs}, {rhs})"
        if op == "min":
            return f"_pmin({lhs}, {rhs})"
        if op == "max":
            return f"_pmax({lhs}, {rhs})"
        raise CompilationError(f"unknown binary operator {op!r}")

    @staticmethod
    def _lookup(index: dict[str, int], name: str, kind: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise CompilationError(f"unbound {kind} {name!r}") from None

    def _emit_pre(self, expr: Expr) -> str:
        """Emit ``expr`` (driver/parameter-only) into the precompute body."""
        if isinstance(expr, Ext):
            return self._emit_pre(expr.operand)
        key = id(expr)
        cached = self._pre_memo.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, Const):
            rhs = repr(expr.value)
            wide = False
        elif isinstance(expr, Param):
            rhs = f"P[{self._lookup(self._param_index, expr.name, 'parameter')}]"
            wide = True
        elif isinstance(expr, Var):
            index = self._lookup(self._var_index, expr.name, "variable")
            rhs = f"VT[:, {index}:{index + 1}]"
            wide = False
        elif isinstance(expr, UnOp):
            operand = self._emit_pre(expr.operand)
            rhs = self._unary_rhs(expr.op, operand)
            wide = operand in self._wide
        elif isinstance(expr, BinOp):
            lhs = self._emit_pre(expr.lhs)
            rhs_operand = self._emit_pre(expr.rhs)
            rhs = self._binary_rhs(expr.op, lhs, rhs_operand)
            wide = lhs in self._wide or rhs_operand in self._wide
        else:
            raise CompilationError(
                f"cannot compile node type {type(expr).__name__}"
            )
        name = self._assign(self.pre_lines, self._pre_values, rhs)
        if wide:
            self._wide.add(name)
        self._pre_memo[key] = name
        return name

    def _row_of(self, hoisted: str) -> str:
        """The step-side temp extracting a hoisted temp's current row."""
        row = self._rows.get(hoisted)
        if row is None:
            index = len(self.hoisted)
            self.hoisted.append(hoisted)
            row = self._assign(
                self.step_lines, self._step_values, f"C[{index}][t]"
            )
            if hoisted in self._wide:
                self._wide.add(row)
            self._rows[hoisted] = row
        return row

    def emit(self, expr: Expr) -> str:
        """Emit assignments computing ``expr``; return its step temp."""
        if isinstance(expr, Ext):
            return self.emit(expr.operand)
        key = id(expr)
        cached = self._step_memo.get(key)
        if cached is not None:
            return cached
        mask = _dep_mask(expr, self._dep_memo)
        if mask & _DEP_V and not mask & _DEP_S:
            name = self._row_of(self._emit_pre(expr))
            self._step_memo[key] = name
            return name
        if isinstance(expr, Const):
            rhs = repr(expr.value)
            wide = False
        elif isinstance(expr, Param):
            rhs = f"P[{self._lookup(self._param_index, expr.name, 'parameter')}]"
            wide = True
        elif isinstance(expr, State):
            rhs = f"S[{self._lookup(self._state_index, expr.name, 'state')}]"
            wide = True
        elif isinstance(expr, UnOp):
            operand = self.emit(expr.operand)
            rhs = self._unary_rhs(expr.op, operand)
            wide = operand in self._wide
        elif isinstance(expr, BinOp):
            lhs = self.emit(expr.lhs)
            rhs_operand = self.emit(expr.rhs)
            rhs = self._binary_rhs(expr.op, lhs, rhs_operand)
            wide = lhs in self._wide or rhs_operand in self._wide
        else:
            raise CompilationError(
                f"cannot compile node type {type(expr).__name__}"
            )
        name = self._assign(self.step_lines, self._step_values, rhs)
        if wide:
            self._wide.add(name)
        self._step_memo[key] = name
        return name


def generate_batched_source(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
    name: str = "_compiled_batched",
) -> str:
    """Generate NumPy source for a two-phase batched step kernel.

    Two functions are emitted: ``_precompute_batched(P, VT)`` evaluates
    every driver-dependent, state-independent temporary over the whole
    ``(T, n_vars)`` driver table, and ``f(P, C, t, S)`` computes one
    derivative row from the hoisted tuple ``C`` at row ``t`` plus the
    state-dependent remainder, writing one ``(K,)`` row per state into a
    fresh ``(n_states, K)`` output (assignment broadcasting also covers
    constant-only equations, whose temporaries stay scalars).  This is
    the one-member form of :func:`generate_cohort_source`.
    """
    source, __ = _generate_cohort(
        [(exprs, param_order)], var_order, state_order, 1, name
    )
    return source


def compile_model_batched(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> CompiledBatchedModel:
    """Compile a batched step kernel over K parameter columns.

    The returned kernel agrees with K applications of the scalar
    interpreter column by column (to float tolerance -- libm and NumPy
    may differ in the last ulp of ``exp``/``log``), including protected
    edge cases and NaN propagation, so a diverging column behaves exactly
    as its scalar simulation would while leaving its neighbours intact.
    """
    source, n_hoisted = _generate_cohort(
        [(exprs, param_order)], var_order, state_order, 1, "_compiled_batched"
    )
    namespace = _batched_namespace()
    code = compile(source, filename="<repro:_compiled_batched>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from our own AST only
    return CompiledBatchedModel(
        precompute_fn=namespace["_precompute_batched"],
        step_fn=namespace["_compiled_batched"],
        source=source,
        n_hoisted=n_hoisted,
    )


def _batched_namespace() -> dict[str, Any]:
    """Exec namespace shared by the batched and cohort kernel forms."""
    return {
        "_empty": np.empty,
        "_pdiv": batched_protected_div,
        "_plog": batched_protected_log,
        "_pexp": batched_protected_exp,
        "_pmin": batched_min,
        "_pmax": batched_max,
    }


def _merge_lane_runs(temps: Sequence[str]) -> list[tuple[int, int, str]]:
    """Collapse per-member output temps into ``(start, stop, temp)`` runs.

    Adjacent members whose equation for a state lowered to the *same*
    temp (identical structure after CSE) share one slice write.
    """
    runs: list[tuple[int, int, str]] = []
    for member, temp in enumerate(temps):
        if runs and runs[-1][2] == temp and runs[-1][1] == member:
            runs[-1] = (runs[-1][0], member + 1, temp)
        else:
            runs.append((member, member + 1, temp))
    return runs


def _generate_cohort(
    members: Sequence[tuple[Sequence[Expr], Sequence[str]]],
    var_order: Sequence[str],
    state_order: Sequence[str],
    lanes_per_member: int,
    name: str = "_compiled_cohort",
) -> tuple[str, int]:
    """Fused cohort source plus its hoisted-temporary count.

    ``members`` holds one ``(exprs, param_order)`` pair per structure;
    every member must supply one expression per state of
    ``state_order``.  The generated step function writes member ``m``'s
    results into lanes ``[m * K, (m + 1) * K)`` of the output; temps
    that stay narrow (constant- or driver-only) are assigned unsliced
    and broadcast into the slice.  A one-member cohort writes whole
    output rows, whatever ``K``: that is the batched kernel.
    """
    if not members:
        raise CompilationError("a cohort needs at least one member")
    if lanes_per_member < 1:
        raise CompilationError("lanes_per_member must be >= 1")
    n_states = len(state_order)
    emitter = _BatchedEmitter(var_order, state_order)
    results: list[list[str]] = []
    for exprs, param_order in members:
        if len(exprs) != n_states:
            raise CompilationError(
                f"member has {len(exprs)} equations for {n_states} states"
            )
        emitter.begin_member(param_order)
        results.append([emitter.emit(expr) for expr in exprs])
    returns = ", ".join(emitter.hoisted)
    if len(emitter.hoisted) == 1:
        returns += ","
    lines = [
        "def _precompute_batched(P, VT):",
        *emitter.pre_lines,
        f"    return ({returns})",
        "",
        f"def {name}(P, C, t, S):",
        *emitter.step_lines,
        f"    _out = _empty(({n_states}, S.shape[1]))",
    ]
    for state_index in range(n_states):
        temps = [member_results[state_index] for member_results in results]
        for start, stop, temp in _merge_lane_runs(temps):
            if start == 0 and stop == len(members):
                lines.append(f"    _out[{state_index}] = {temp}")
                continue
            lo = start * lanes_per_member
            hi = stop * lanes_per_member
            if temp in emitter._wide:
                lines.append(
                    f"    _out[{state_index}, {lo}:{hi}] = {temp}[{lo}:{hi}]"
                )
            else:
                lines.append(f"    _out[{state_index}, {lo}:{hi}] = {temp}")
    lines.append("    return _out")
    return "\n".join(lines), len(emitter.hoisted)


def generate_cohort_source(
    members: Sequence[tuple[Sequence[Expr], Sequence[str]]],
    var_order: Sequence[str],
    state_order: Sequence[str],
    lanes_per_member: int,
    name: str = "_compiled_cohort",
) -> str:
    """Generate NumPy source for a fused multi-structure cohort kernel."""
    source, __ = _generate_cohort(
        members, var_order, state_order, lanes_per_member, name
    )
    return source


def compile_model_cohort(
    members: Sequence[tuple[Sequence[Expr], Sequence[str]]],
    var_order: Sequence[str],
    state_order: Sequence[str],
    lanes_per_member: int,
) -> CompiledCohortKernel:
    """Compile M structures into one fused cohort step kernel.

    The fused kernel agrees lane for lane with each member's own
    batched kernel bit for bit: every emitted operation is elementwise
    over the lane axis, so evaluating a member's subexpressions over
    the full fused width (including lanes it does not own) changes
    nothing about the values computed *in* its lanes, and the shared
    temps produced by cross-member CSE hold, per lane, exactly what the
    member's standalone emission would have computed there.  Lanes a
    member does not own -- other members' lanes and padding -- never
    reach its output rows.
    """
    source, n_hoisted = _generate_cohort(
        members, var_order, state_order, lanes_per_member
    )
    namespace = _batched_namespace()
    code = compile(source, filename="<repro:_compiled_cohort>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from our own AST only
    return CompiledCohortKernel(
        precompute_fn=namespace["_precompute_batched"],
        step_fn=namespace["_compiled_cohort"],
        source=source,
        n_hoisted=n_hoisted,
        n_members=len(members),
        lanes_per_member=lanes_per_member,
        n_params=max(len(param_order) for __, param_order in members),
        n_states=len(state_order),
    )


class CompiledStationKernel:
    """A per-structure kernel for the stations of a river network.

    ``make(P)`` binds one parameter vector and returns two functions:

    * ``hoist(VB)`` evaluates the *frontier* -- the maximal
      driver-dependent, state-free subtrees the state code reads -- over
      a block of driver rows for every station at once.  ``VB`` has
      shape ``(n_vars, n_stations, rows)``; the result holds, per
      station, one list of frontier values per row.
    * ``station(F, *S)`` computes one derivative tuple from a frontier
      row ``F`` and the station's states.

    Parameter-only subtrees are computed once inside ``make``.  Every
    phase reproduces the scalar step function's values bit for bit:
    the scalar phases share its lowering, and the hoist phase uses the
    batched protected operators, which are exact for ``+ - * /`` and
    ``min``/``max``, with ``exp``/``log`` evaluated element-wise through
    libm (NumPy's vectorised ``exp``/``log`` can differ from
    :mod:`math` in the last ulp).  The hoist runs under
    ``np.errstate(all="ignore")``: overflow and ``inf - inf`` give the
    scalar step's inf/NaN values without a ``RuntimeWarning``.
    The kernel does not depend on the network, so one kernel serves
    every station and every network.
    """

    __slots__ = ("make", "source", "n_frontier")

    def __init__(self, make: Callable, source: str, n_frontier: int) -> None:
        self.make = make
        self.source = source
        self.n_frontier = n_frontier


class _StationEmitter(_Emitter):
    """Lowers a structure into the three streams of a station kernel.

    This emitter's own ``lines`` are the step stream: the
    state-dependent remainder under the scalar lowering, with state
    ``i`` read from argument ``S{i}``.  Every other subtree leaves it.
    Parameter-only (and constant) subtrees go to :attr:`setup`, a
    scalar emitter that runs once per parameter vector.  Maximal
    driver-dependent, state-free subtrees go to the hoist stream and
    become frontier arguments ``c{j}`` of the step function, the subtrees
    :meth:`_BatchedEmitter._row_of` selects for the batched kernels.
    """

    def __init__(
        self,
        param_order: Sequence[str],
        var_order: Sequence[str],
        state_order: Sequence[str],
    ) -> None:
        super().__init__(param_order, var_order, state_order)
        self.setup = _Emitter(param_order, (), (), prefix="k")
        #: Value-numbered sink of the hoist stream's array assignments.
        self.hoist = _Emitter((), (), (), prefix="h")
        #: Hoisted temps in frontier-argument order.
        self.frontier: list[str] = []
        self._frontier_names: dict[str, str] = {}
        self._hoist_memo: dict[int, str] = {}
        self._masks: dict[int, int] = {}

    def emit(self, expr: Expr) -> str:
        if isinstance(expr, Ext):
            return self.emit(expr.operand)
        mask = _dep_mask(expr, self._masks)
        if mask & _DEP_S:
            return super().emit(expr)
        if mask & _DEP_V:
            return self._read(self._emit_hoisted(expr))
        return self.setup.emit(expr)

    def _emit(self, expr: Expr) -> str:
        if isinstance(expr, State):
            return f"S{self._lookup(self._state_index, expr.name, 'state')}"
        return super()._emit(expr)

    def _read(self, hoisted: str) -> str:
        """The frontier argument carrying a hoisted temp's value."""
        name = self._frontier_names.get(hoisted)
        if name is None:
            name = f"c{len(self.frontier)}"
            self.frontier.append(hoisted)
            self._frontier_names[hoisted] = name
        return name

    def _emit_hoisted(self, expr: Expr) -> str:
        """Emit a state-free subtree into the hoist stream."""
        if isinstance(expr, Ext):
            return self._emit_hoisted(expr.operand)
        if not _dep_mask(expr, self._masks) & _DEP_V:
            return self.setup.emit(expr)
        key = id(expr)
        cached = self._hoist_memo.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, Var):
            index = self._lookup(self._var_index, expr.name, "variable")
            rhs = f"VB[{index}]"
        elif isinstance(expr, UnOp):
            operand = self._emit_hoisted(expr.operand)
            rhs = _BatchedEmitter._unary_rhs(expr.op, operand)
        else:
            assert isinstance(expr, BinOp)
            lhs = self._emit_hoisted(expr.lhs)
            rhs_operand = self._emit_hoisted(expr.rhs)
            rhs = _BatchedEmitter._binary_rhs(expr.op, lhs, rhs_operand)
        name = self.hoist._assign(rhs)
        self._hoist_memo[key] = name
        return name


def _generate_station(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> tuple[str, int]:
    """Source of a station kernel's factory ``_make_station`` (see
    :class:`CompiledStationKernel`), plus its frontier size."""
    emitter = _StationEmitter(param_order, var_order, state_order)
    results = [emitter.emit(expr) for expr in exprs]
    hoisted = "".join(f"{name}, " for name in emitter.frontier)
    states = "".join(f", S{index}" for index in range(len(state_order)))
    lines = [
        "def _make_station(P):",
        *emitter.setup.lines,
        "    def hoist(VB):",
        '        with _errstate(all="ignore"):',
        *(f"        {line}" for line in emitter.hoist.lines),
        f"            return _frontier(({hoisted}), VB)",
        f"    def station(F{states}):",
    ]
    if emitter.frontier:
        arguments = "".join(f"c{j}, " for j in range(len(emitter.frontier)))
        lines.append(f"        {arguments}= F")
    lines.extend(f"    {line}" for line in emitter.lines)
    lines.append(f"        return ({''.join(f'{name}, ' for name in results)})")
    lines.append("    return hoist, station")
    return "\n".join(lines), len(emitter.frontier)


def _libm_map(function: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    return np.fromiter(
        map(function, values.ravel().tolist()), float, values.size
    ).reshape(values.shape)


def _libm_protected_exp(value: np.ndarray) -> np.ndarray:
    """:func:`batched_protected_exp` through libm's ``exp``."""
    return _libm_map(math.exp, np.minimum(value, EXP_MAX))


def _libm_protected_log(value: np.ndarray) -> np.ndarray:
    """:func:`batched_protected_log` through libm's ``log``."""
    magnitude = np.abs(value)
    return _libm_map(math.log, np.where(magnitude < LOG_EPS, 1.0, magnitude))


def _frontier_rows(temps: tuple[np.ndarray, ...], VB: np.ndarray) -> list:
    """Per-station lists of per-row frontier values.

    Every hoisted temp reads a driver, so each has ``VB``'s trailing
    ``(n_stations, rows)`` shape.
    """
    if not temps:
        return np.empty(VB.shape[1:] + (0,)).tolist()
    return np.stack(temps, axis=-1).tolist()


def compile_station_kernel(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> CompiledStationKernel:
    """Compile a structure's river-network station kernel."""
    source, n_frontier = _generate_station(
        exprs, param_order, var_order, state_order
    )
    namespace = {
        "_exp": math.exp,
        "_log": math.log,
        "_pdiv": batched_protected_div,
        "_pmin": batched_min,
        "_pmax": batched_max,
        "_pexp": _libm_protected_exp,
        "_plog": _libm_protected_log,
        "_frontier": _frontier_rows,
        "_errstate": np.errstate,
    }
    make = _compile_source(source, "_make_station", namespace)
    return CompiledStationKernel(make, source, n_frontier)


@dataclass
class KernelCacheStats:
    """Hit/miss/eviction counters of a kernel cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def publish(
        self, registry: MetricsRegistry, prefix: str = "kernel_cache"
    ) -> None:
        """Publish the counters into a :class:`repro.obs.MetricsRegistry`."""
        publish_fields(self, registry, prefix)


class KernelCache:
    """A bounded LRU of compiled kernels, keyed by model structure.

    Compiling a step function costs orders of magnitude more than a
    dictionary lookup, and evolutionary search re-proposes the same
    structures constantly -- so kernels are memoised per structure and
    the least recently *used* (not oldest) entry is evicted at capacity.
    Also used per-evaluator for scalar kernel sharing; the process-global
    instance is :data:`KERNEL_CACHE`.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("KernelCache needs max_entries >= 1")
        self.max_entries = max_entries
        self.stats = KernelCacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """Look up a kernel, refreshing its recency; None on miss."""
        try:
            kernel = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return kernel

    def put(self, key: Hashable, kernel: Any) -> None:
        """Insert a kernel, evicting the least recently used at capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = kernel
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = kernel

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached kernel for ``key``, building it on a miss."""
        kernel = self.get(key)
        if kernel is None:
            kernel = builder()
            self.put(key, kernel)
        return kernel

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def __getstate__(self) -> dict:
        # Compiled kernels are exec-generated closures and unpicklable;
        # ship the configuration and the counters (a checkpoint round-trip
        # must not zero hit/miss/eviction statistics) and let the receiving
        # process rebuild entries on demand.
        return {"max_entries": self.max_entries, "stats": self.stats}

    def __setstate__(self, state: dict) -> None:
        self.max_entries = state["max_entries"]
        self.stats = state["stats"]
        self._entries = OrderedDict()


#: Process-global kernel cache shared by every model and evaluator in
#: this process (worker processes each grow their own after pickling).
KERNEL_CACHE = KernelCache(max_entries=512)
