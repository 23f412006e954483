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
:mod:`repro.expr.evaluate`), its leaf spelling and the routing tables.
Every spelling takes ``exp``/``log`` from libm (the NumPy helpers map
it element by element), so every form matches the scalar step bit for
bit:

* the **scalar** form (:func:`compile_model`) is one scalar stream with
  no routing: one candidate steps through plain Python floats; and
* the **station** form (:func:`compile_station_kernel`) splits one
  structure for the river network: state-dependent subtrees stay in a
  scalar step stream, driver-dependent, state-free ones go to a NumPy
  *hoist* stream evaluated over blocks of days, and constant or
  parameter-only ones go to a scalar *setup* stream run once per
  parameter vector.

Compilation cost is paid once per structure per process: kernels are
memoised in a bounded process-global LRU (:data:`KERNEL_CACHE`), keyed
on the exact tree and the orders the source bakes in
(:meth:`repro.dynamics.system.ProcessModel.structure_key`), so a kernel
is shared only between models that would generate the same source.
Worker processes and resumed runs start with their own empty table and
fill it lazily (exec-generated functions cannot cross process
boundaries); since keys are exact, what a model computes does not depend
on which kernels a process compiled before it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, repeat
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


class CompilationError(ValueError):
    """Raised when an expression cannot be lowered to source."""


class _Stream:
    """A value-numbered sink of straight-line assignments.

    Every emitted rhs is a pure expression over earlier temps, so
    textually identical rhs compute identical values and structurally
    repeated subtrees collapse to one temp.  This base class spells the
    protected operators as the scalar inline guards.

    :attr:`route` maps a subtree's dependency mask to the stream that
    lowers it, and :meth:`export` turns a temp of this stream into the
    leaf another stream reads it through.
    """

    def __init__(self, prefix: str, bind_leaves: bool = True) -> None:
        self.lines: list[str] = []
        self._values: dict[str, str] = {}
        self._prefix = prefix
        self._counter = count()
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
    place; the station kernel's namespace binds them
    (:data:`_ARRAY_OPERATORS`).
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


#: The helpers an :class:`_ArrayStream`'s operator spellings call.
_ARRAY_OPERATORS = {
    "_pdiv": batched_protected_div,
    "_plog": batched_protected_log,
    "_pexp": batched_protected_exp,
    "_pmin": batched_min,
    "_pmax": batched_max,
}


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
    strings over the leaf's index ``{0}`` in ``param_order``,
    ``var_order`` and ``state_order``.
    """

    def __init__(
        self,
        leaves: tuple[str, str, str],
        param_order: Sequence[str],
        var_order: Sequence[str],
        state_order: Sequence[str],
    ) -> None:
        self._spellings: dict[type, tuple[dict[str, str], str]] = {
            Param: (_spelled(leaves[0], tuple(param_order)), "parameter"),
            Var: (_spelled(leaves[1], tuple(var_order)), "variable"),
            State: (_spelled(leaves[2], tuple(state_order)), "state"),
        }
        self._masks: dict[int, int] = {}

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
    return {name: spelling.format(i) for i, name in enumerate(order)}


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
    lowering = _Lowering(
        ("P[{0}]", "V[{0}]", "S[{0}]"), param_order, var_order, state_order
    )
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


class CompiledStationKernel:
    """A per-structure kernel for the stations of a river network.

    ``make(P)`` binds one parameter vector and returns two functions:

    * ``hoist(VB)`` evaluates the *frontier* -- the maximal
      driver-dependent, state-free subtrees the state code reads -- over
      a block of driver rows for every station at once.  ``VB`` has
      shape ``(n_vars, n_stations, rows)``; the result holds, per
      station, an iterator of one tuple of frontier values per row.
    * ``station(F, *S)`` computes one derivative tuple from a frontier
      row ``F`` and the station's states.

    Parameter-only subtrees are computed once inside ``make``.  Every
    phase reproduces the scalar step function's values bit for bit:
    the scalar phases share its lowering, and the hoist phase uses the
    batched protected operators.  The hoist runs under
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
    as frontier arguments ``c{j}``.
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
        ("P[{0}]", "VB[{0}]", "S{0}"), param_order, var_order, state_order
    )
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


def _frontier_rows(temps: tuple[np.ndarray, ...], VB: np.ndarray) -> list:
    """Per-station iterators of per-row frontier tuples.

    Every hoisted temp reads a driver, so each has ``VB``'s trailing
    ``(n_stations, rows)`` shape.  Each station's temps leave NumPy as
    whole rows, zipped into one tuple per day as the loop consumes them
    (a per-day list from ``tolist`` costs twice as much).
    """
    if not temps:
        n_stations, n_rows = VB.shape[1:]
        return [repeat((), n_rows) for __ in range(n_stations)]
    return [zip(*station) for station in np.stack(temps, axis=1).tolist()]


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
        **_ARRAY_OPERATORS,
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
    The process-global instance is :data:`KERNEL_CACHE`.
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


#: Process-global kernel cache shared by every model in this process
#: (worker processes each grow their own after pickling).
KERNEL_CACHE = KernelCache(max_entries=512)
