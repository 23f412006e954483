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

One lowering pass (:class:`_Lowering`) emits every kernel form.  It
walks a tree once, value-numbers every assignment into a *stream*
(:class:`_Stream`), and lets each stream route a subtree to another
stream by its dependency mask -- which of parameters ``P``, drivers
``V`` and states ``S`` it reads.  A form supplies only its streams'
operator spelling (scalar inline guards, or the NumPy helpers of
:mod:`repro.expr.evaluate`), its leaf spelling and the routing tables:

* the **scalar** form (:func:`compile_model`) is one scalar stream with
  no routing: one candidate steps through plain Python floats;
* the **cohort** form (:func:`compile_model_cohort`) fuses M structures
  into one NumPy kernel over ``M * K`` padded lanes.  Its step stream
  sends driver-dependent, state-free subtrees to a *precompute* stream
  that evaluates them for a whole ``(T, n_vars)`` driver table at once;
  every other subtree stays in the step.  Value numbering is
  cohort-wide, so positionally identical subexpressions of *different*
  structures are computed once, and each member's results are written
  only to its own lane slice.  The fitness evaluator runs only its
  one-member form below; several members in one kernel are exercised by
  the kernel tests and the oracle harness;
* the **batched** form (:func:`compile_model_batched`) is the
  one-member cohort: K parameter columns of one structure, whole output
  rows; and
* the **station** form (:func:`compile_station_kernel`) splits one
  structure for the river network: state-dependent subtrees stay in a
  scalar step stream, driver-dependent, state-free ones go to a NumPy
  *hoist* stream evaluated over blocks of days (with ``exp``/``log``
  mapped through libm), and constant or parameter-only ones go to a
  scalar *setup* stream run once per parameter vector.

Compilation cost is paid once per structure per process: kernels are
memoised in a bounded process-global LRU (:data:`KERNEL_CACHE`), which
worker processes repopulate lazily after pickling (exec-generated
functions cannot cross process boundaries).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Any, Callable, Hashable, Iterator, Sequence

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


class CompiledCohortKernel:
    """A two-phase NumPy step kernel integrating structures side by side.

    The kernel advances M structures × K lanes: parameter matrix ``P``
    has shape ``(n_params, M * K)`` (rows follow each member's own
    ``param_order`` within its lane block, unused rows are ignored) and
    the state matrix ``S`` has shape ``(n_states, M * K)``.  Member
    ``m`` owns lanes ``[m * K, (m + 1) * K)``; every subexpression is
    evaluated over the *full* fused width, so positionally identical
    subexpressions of different members collapse to one temp under value
    numbering -- the lanes a member does not own carry other members'
    values (or garbage) and are never written to its output slice.  A
    one-member kernel (the batched form) writes whole output rows, so
    it takes any number K of parameter columns.

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

    __slots__ = (
        "_precompute_fn",
        "_step_fn",
        "source",
        "n_hoisted",
        "n_members",
        "lanes_per_member",
        "n_params",
        "n_states",
    )

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
        self._precompute_fn = precompute_fn
        self._step_fn = step_fn
        self.source = source
        self.n_hoisted = n_hoisted
        self.n_members = n_members
        self.lanes_per_member = lanes_per_member
        self.n_params = n_params
        self.n_states = n_states

    @property
    def width(self) -> int:
        """Total fused lane count ``n_members * lanes_per_member``."""
        return self.n_members * self.lanes_per_member

    def precompute(self, params: np.ndarray, driver_table: np.ndarray) -> tuple:
        """Hoisted temporaries for all rows of ``driver_table``.

        Each element is an array whose leading axis indexes the table's
        rows; pass the tuple to :meth:`step` with the row offset.
        """
        return self._precompute_fn(params, driver_table)

    def step(
        self, params: np.ndarray, hoisted: tuple, row: int, states: np.ndarray
    ) -> np.ndarray:
        """One derivative step: ``(n_states, width)`` for driver row ``row``."""
        return self._step_fn(params, hoisted, row, states)

    def __call__(
        self, params: np.ndarray, driver_row: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        table = np.asarray(driver_row, dtype=float).reshape(1, -1)
        return self._step_fn(params, self._precompute_fn(params, table), 0, states)


class CompilationError(ValueError):
    """Raised when an expression cannot be lowered to source."""


class _Stream:
    """A value-numbered sink of straight-line assignments.

    Every emitted rhs is a pure expression over earlier temps, so
    textually identical rhs compute identical values and structurally
    repeated subtrees collapse to one temp.  This base class spells the
    protected operators as the scalar inline guards; streams sharing a
    ``counter`` draw unique temp names from it.

    :attr:`route` maps a subtree's dependency mask to the stream that
    lowers it, and :meth:`export` turns a temp of this stream into the
    leaf another stream reads it through.
    """

    def __init__(
        self,
        prefix: str,
        counter: Iterator[int] | None = None,
        bind_leaves: bool = True,
    ) -> None:
        self.lines: list[str] = []
        self._values: dict[str, str] = {}
        self._prefix = prefix
        self._counter = count() if counter is None else counter
        #: Whether a leaf gets its own temp; False when the leaves are
        #: already names (the station step's state arguments).
        self.bind_leaves = bind_leaves
        #: Node identity -> the name this stream reads the node by.
        self.memo: dict[int, str] = {}
        #: Stream lowering a subtree, indexed by its dependency mask; a
        #: None table or entry keeps the subtree in this stream.
        self.route: tuple[_Stream | None, ...] | None = None
        #: Format of the leaf through which another stream reads this
        #: stream's ``j``-th exported temp; None lets other streams read
        #: the temps by name (closure variables).
        self.reader: str | None = None
        #: Temps other streams read, in export order.
        self.exported: list[str] = []
        self._exports: dict[str, str] = {}

    def assign(self, rhs: str) -> str:
        cached = self._values.get(rhs)
        if cached is not None:
            return cached
        name = f"{self._prefix}{next(self._counter)}"
        self.lines.append(f"    {name} = {rhs}")
        self._values[rhs] = name
        return name

    def leaf(self, spelling: str) -> str:
        """The name this stream reads a leaf spelled ``spelling`` by."""
        return self.assign(spelling) if self.bind_leaves else spelling

    def export(self, name: str) -> str:
        """The leaf spelling another stream reads temp ``name`` through."""
        read = self._exports.get(name)
        if read is None:
            read = self._exports[name] = self.reader.format(len(self.exported))
            self.exported.append(name)
        return read

    # Every guard below keeps the *protected* branch on the `if` side of
    # the conditional, mirroring the interpreter's comparison direction.
    # The directions matter for NaN operands (any comparison with NaN is
    # False): ``0.0 if m < eps else x / y`` propagates a NaN denominator
    # like protected_div does, while the flipped spelling
    # ``x / y if m >= eps else 0.0`` would silently map it to 0.0.

    def unary(self, op: str, operand: str) -> str:
        if op == "neg":
            return self.assign(f"-{operand}")
        if op == "exp":
            clamped = self.assign(
                f"{EXP_MAX!r} if {operand} > {EXP_MAX!r} else {operand}"
            )
            return self.assign(f"_exp({clamped})")
        if op == "log":
            magnitude = self.assign(
                f"{operand} if {operand} >= 0.0 else -{operand}"
            )
            return self.assign(
                f"0.0 if {magnitude} < {LOG_EPS!r} else _log({magnitude})"
            )
        raise CompilationError(f"unknown unary operator {op!r}")

    def binary(self, op: str, lhs: str, rhs: str) -> str:
        if op in ("+", "-", "*"):
            return self.assign(f"{lhs} {op} {rhs}")
        if op == "/":
            magnitude = self.assign(f"{rhs} if {rhs} >= 0.0 else -{rhs}")
            return self.assign(
                f"0.0 if {magnitude} < {DIV_EPS!r} else {lhs} / {rhs}"
            )
        # Python's min/max return the *first* argument on ties and on any
        # NaN-poisoned comparison; spell out the exact builtin semantics.
        if op == "min":
            return self.assign(f"{rhs} if {rhs} < {lhs} else {lhs}")
        if op == "max":
            return self.assign(f"{rhs} if {rhs} > {lhs} else {lhs}")
        raise CompilationError(f"unknown binary operator {op!r}")


class _ArrayStream(_Stream):
    """A stream spelling the protected operators as NumPy helper calls.

    The helpers (``_pdiv`` and friends) are the vectorised twins of the
    interpreter's, so the array semantics stay defined in exactly one
    place; the kernel's namespace binds them.
    """

    def unary(self, op: str, operand: str) -> str:
        if op == "neg":
            return self.assign(f"-{operand}")
        if op == "exp":
            return self.assign(f"_pexp({operand})")
        if op == "log":
            return self.assign(f"_plog({operand})")
        raise CompilationError(f"unknown unary operator {op!r}")

    def binary(self, op: str, lhs: str, rhs: str) -> str:
        if op in ("+", "-", "*"):
            return self.assign(f"{lhs} {op} {rhs}")
        if op == "/":
            return self.assign(f"_pdiv({lhs}, {rhs})")
        if op == "min":
            return self.assign(f"_pmin({lhs}, {rhs})")
        if op == "max":
            return self.assign(f"_pmax({lhs}, {rhs})")
        raise CompilationError(f"unknown binary operator {op!r}")


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


def _routes(
    lower: Callable[[int], _Stream | None]
) -> tuple[_Stream | None, ...]:
    """A routing table: the stream lowering each dependency mask."""
    return tuple(lower(mask) for mask in range((_DEP_P | _DEP_V | _DEP_S) + 1))


class _Lowering:
    """Lowers expression trees into a form's streams.

    ``leaves`` spells parameter, driver and state reads as format
    strings over the leaf's index ``{0}`` (and ``{1}``, the index plus
    one, for column slices).  One lowering can emit several structures
    (a cohort) in sequence into the same streams: :meth:`begin_member`
    switches to the next member's parameter mapping.  Value tables,
    exports and temp counters persist across members; only the identity
    memos are member-local, because an expression object must never
    inherit a temp emitted under another member's parameter mapping.
    """

    def __init__(
        self,
        leaves: tuple[str, str, str],
        var_order: Sequence[str],
        state_order: Sequence[str],
        streams: Sequence[_Stream],
    ) -> None:
        self._leaves = leaves
        self._spellings: dict[type, tuple[dict[str, str], str]] = {
            Var: (_spelled(leaves[1], tuple(var_order)), "variable"),
            State: (_spelled(leaves[2], tuple(state_order)), "state"),
        }
        self._streams = streams
        self._masks: dict[int, int] = {}

    def begin_member(self, param_order: Sequence[str]) -> None:
        """Switch to the next member's parameter mapping."""
        self._spellings[Param] = (
            _spelled(self._leaves[0], tuple(param_order)),
            "parameter",
        )
        for stream in self._streams:
            stream.memo.clear()

    def reads_lanes(self, expr: Expr) -> bool:
        """Whether ``expr`` reads parameters or states, so its value
        spans the lane axis (constants and drivers only broadcast)."""
        return bool(_dep_mask(expr, self._masks) & (_DEP_P | _DEP_S))

    def lower(self, expr: Expr, stream: _Stream) -> str:
        """Emit ``expr`` for ``stream``; return the name it reads it by."""
        key = id(expr)
        memo = stream.memo
        name = memo.get(key)
        if name is not None:
            return name
        route = stream.route
        if route is not None:
            mask = self._masks.get(key)
            if mask is None:
                mask = _dep_mask(expr, self._masks)
            target = route[mask]
            if target is not None:
                name = self.lower(expr, target)
                if target.reader is not None:
                    name = stream.leaf(target.export(name))
                memo[key] = name
                return name
        if isinstance(expr, Const):
            value = expr.value
            # A non-finite float's repr (``nan``, ``inf``) is no literal.
            spelling = repr(value) if math.isfinite(value) else f"float('{value}')"
            name = stream.assign(spelling)
        elif isinstance(expr, (Param, Var, State)):
            name = stream.leaf(self._lookup(expr))
        elif isinstance(expr, Ext):
            name = self.lower(expr.operand, stream)
        elif isinstance(expr, UnOp):
            name = stream.unary(expr.op, self.lower(expr.operand, stream))
        elif isinstance(expr, BinOp):
            lhs = self.lower(expr.lhs, stream)
            name = stream.binary(expr.op, lhs, self.lower(expr.rhs, stream))
        else:
            raise CompilationError(
                f"cannot compile node type {type(expr).__name__}"
            )
        memo[key] = name
        return name

    def _lookup(self, leaf: Param | Var | State) -> str:
        spelled, kind = self._spellings[type(leaf)]
        try:
            return spelled[leaf.name]
        except KeyError:
            raise CompilationError(f"unbound {kind} {leaf.name!r}") from None


@lru_cache(maxsize=256)
def _spelled(spelling: str, order: tuple[str, ...]) -> dict[str, str]:
    """Leaf name -> its spelling at the leaf's position in ``order``.

    Memoised, because every structure of a domain shares its driver and
    state orders and structures of one knowledge bundle often share a
    parameter order; callers never mutate the result.
    """
    return {name: spelling.format(i, i + 1) for i, name in enumerate(order)}


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
    step = _Stream("t")
    lowering = _Lowering(("P[{0}]", "V[{0}]", "S[{0}]"), var_order, state_order, [step])
    lowering.begin_member(param_order)
    results = [lowering.lower(expr, step) for expr in exprs]
    header = f"def {name}(P, V, S):"
    returns = "    return (" + ", ".join(results) + ("," if len(results) == 1 else "") + ")"
    return "\n".join([header, *step.lines, returns])


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


def compile_model_batched(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> CompiledCohortKernel:
    """Compile a batched step kernel over K parameter columns: the
    one-member cohort kernel (see :func:`compile_model_cohort`).

    The returned kernel agrees with K applications of the scalar
    interpreter column by column (to float tolerance -- libm and NumPy
    may differ in the last ulp of ``exp``/``log``), including protected
    edge cases and NaN propagation, so a diverging column behaves exactly
    as its scalar simulation would while leaving its neighbours intact.
    """
    return compile_model_cohort([(exprs, param_order)], var_order, state_order, 1)


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
) -> tuple[str, int]:
    """Fused cohort source plus its hoisted-temporary count.

    ``members`` holds one ``(exprs, param_order)`` pair per structure;
    every member must supply one expression per state of
    ``state_order``.  Two functions are emitted: ``_precompute_batched(P,
    VT)`` evaluates every driver-dependent, state-free temporary over the
    whole ``(T, n_vars)`` driver table (``VT[:, i:i+1]`` columns
    broadcast against ``(K,)`` parameter rows into ``(T, K)`` arrays),
    and ``_compiled_cohort(P, C, t, S)`` reads their row ``t`` from the
    hoisted tuple ``C`` and computes the state-dependent remainder.  A
    parameter-only subtree feeding a hoisted temporary is re-emitted
    into the precompute stream.  The step function writes member ``m``'s
    results into lanes ``[m * K, (m + 1) * K)`` of a fresh ``(n_states,
    M * K)`` output; temps that read no parameter or state stay narrow
    (scalars or ``(1,)``-shaped) and are assigned unsliced, broadcast
    into the slice.  A one-member cohort writes whole output rows,
    whatever ``K``: that is the batched kernel.
    """
    if not members:
        raise CompilationError("a cohort needs at least one member")
    if lanes_per_member < 1:
        raise CompilationError("lanes_per_member must be >= 1")
    n_states = len(state_order)
    temps = count()
    pre = _ArrayStream("t", temps)
    step = _ArrayStream("t", temps)
    step.route = _routes(
        lambda mask: pre if mask & _DEP_V and not mask & _DEP_S else None
    )
    pre.reader = "C[{}][t]"
    lowering = _Lowering(
        ("P[{0}]", "VT[:, {0}:{1}]", "S[{0}]"), var_order, state_order, [pre, step]
    )
    results: list[list[str]] = []
    wide: set[str] = set()
    for exprs, param_order in members:
        if len(exprs) != n_states:
            raise CompilationError(
                f"member has {len(exprs)} equations for {n_states} states"
            )
        lowering.begin_member(param_order)
        results.append([lowering.lower(expr, step) for expr in exprs])
        wide.update(
            temp
            for temp, expr in zip(results[-1], exprs)
            if lowering.reads_lanes(expr)
        )
    returns = ", ".join(pre.exported)
    if len(pre.exported) == 1:
        returns += ","
    lines = [
        "def _precompute_batched(P, VT):",
        *pre.lines,
        f"    return ({returns})",
        "",
        "def _compiled_cohort(P, C, t, S):",
        *step.lines,
        f"    _out = _empty(({n_states}, S.shape[1]))",
    ]
    for state_index in range(n_states):
        outputs = [member_results[state_index] for member_results in results]
        for start, stop, temp in _merge_lane_runs(outputs):
            if start == 0 and stop == len(members):
                lines.append(f"    _out[{state_index}] = {temp}")
                continue
            lo = start * lanes_per_member
            hi = stop * lanes_per_member
            if temp in wide:
                lines.append(
                    f"    _out[{state_index}, {lo}:{hi}] = {temp}[{lo}:{hi}]"
                )
            else:
                lines.append(f"    _out[{state_index}, {lo}:{hi}] = {temp}")
    lines.append("    return _out")
    return "\n".join(lines), len(pre.exported)


def generate_cohort_source(
    members: Sequence[tuple[Sequence[Expr], Sequence[str]]],
    var_order: Sequence[str],
    state_order: Sequence[str],
    lanes_per_member: int,
) -> str:
    """Generate NumPy source for a fused multi-structure cohort kernel."""
    source, __ = _generate_cohort(
        members, var_order, state_order, lanes_per_member
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
    namespace = {
        "_empty": np.empty,
        "_pdiv": batched_protected_div,
        "_plog": batched_protected_log,
        "_pexp": batched_protected_exp,
        "_pmin": batched_min,
        "_pmax": batched_max,
    }
    step_fn = _compile_source(source, "_compiled_cohort", namespace)
    return CompiledCohortKernel(
        precompute_fn=namespace["_precompute_batched"],
        step_fn=step_fn,
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


def _generate_station(
    exprs: Sequence[Expr],
    param_order: Sequence[str],
    var_order: Sequence[str],
    state_order: Sequence[str],
) -> tuple[str, int]:
    """Source of a station kernel's factory ``_make_station`` (see
    :class:`CompiledStationKernel`), plus its frontier size.

    The step stream holds the state-dependent remainder under the
    scalar spelling, with state ``i`` read from argument ``S{i}``.
    Constant and parameter-only subtrees go to the scalar setup stream
    (``k`` temps, run once per parameter vector, read by name from the
    closures); maximal driver-dependent, state-free subtrees go to the
    hoist stream (``h`` temps over ``VB``) and reach the step function
    as frontier arguments ``c{j}`` -- the subtrees the cohort form
    hoists into its precompute stream.
    """
    setup = _Stream("k")
    hoist = _ArrayStream("h")
    step = _Stream("t", bind_leaves=False)
    step.route = _routes(
        lambda mask: None if mask & _DEP_S else hoist if mask & _DEP_V else setup
    )
    hoist.route = _routes(lambda mask: None if mask & _DEP_V else setup)
    hoist.reader = "c{}"
    lowering = _Lowering(
        ("P[{0}]", "VB[{0}]", "S{0}"), var_order, state_order, [setup, hoist, step]
    )
    lowering.begin_member(param_order)
    results = [lowering.lower(expr, step) for expr in exprs]
    frontier = hoist.exported
    hoisted = "".join(f"{name}, " for name in frontier)
    states = "".join(f", S{index}" for index in range(len(state_order)))
    lines = [
        "def _make_station(P):",
        *setup.lines,
        "    def hoist(VB):",
        '        with _errstate(all="ignore"):',
        *(f"        {line}" for line in hoist.lines),
        f"            return _frontier(({hoisted}), VB)",
        f"    def station(F{states}):",
    ]
    if frontier:
        arguments = "".join(f"c{j}, " for j in range(len(frontier)))
        lines.append(f"        {arguments}= F")
    lines.extend(f"    {line}" for line in step.lines)
    lines.append(f"        return ({''.join(f'{name}, ' for name in results)})")
    lines.append("    return hoist, station")
    return "\n".join(lines), len(frontier)


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
