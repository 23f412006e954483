"""Runtime compilation of expression ASTs to Python functions.

The paper evaluates evolved models with *runtime compilation* (tree ->
source -> G++ -> dynamically loaded object).  We reproduce the same code
path in Python: the AST is lowered to straight-line Python source shaped
like the expression itself -- a value read once is written inline where
it is read, a value read twice or more is bound to a temp once, so
neither shared subtrees nor the operands of protected-operator guards
are computed twice -- compiled once with :func:`compile`, and the
resulting function is reused for every time step of every simulation.

Compiled functions take positional tuples rather than name lookups --
the orderings of parameters, driver variables, and states are baked into
the generated source, which is what makes the compiled path fast.

The compiler and the reference interpreter in :mod:`repro.expr.evaluate`
implement identical protected semantics; the property-based test suite
checks them against each other on random expressions.

One lowering pass (:class:`_Lowering`) emits every kernel form.  It
walks a tree once, value-numbers every operation into a *stream*
(:class:`_Stream`), which renders it as expressions, and lets each
stream route a subtree to another stream by its dependency mask --
which of parameters ``P``, drivers ``V`` and states ``S`` it reads.  A
form supplies only its streams' operator spelling (scalar inline guards,
or the NumPy helpers of :mod:`repro.expr.evaluate`), its leaf spelling
and the routing tables.  Every spelling takes ``exp``/``log`` from libm
(the NumPy helpers map it element by element), so every form matches
the scalar step bit for bit:

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
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Sequence

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
from repro.lru import LRU

#: Signature of a compiled single-expression function.
CompiledExpr = Callable[[Sequence[float], Sequence[float], Sequence[float]], float]

#: Signature of a compiled multi-output (model step) function.
CompiledModel = Callable[
    [Sequence[float], Sequence[float], Sequence[float]], tuple[float, ...]
]


class CompilationError(ValueError):
    """Raised when an expression cannot be lowered to source."""


#: Python precedence levels of the generated spellings, loosest first:
#: a conditional expression, ``+``/``-``, ``*``/``/``, unary ``-``, and
#: atoms (names, literals, subscripts and calls).
_COND, _ADD, _MUL, _UNARY, _ATOM = range(5)

#: Longest text inlined into a reader; a longer one is bound to its temp,
#: which keeps the nesting depth of every generated expression far below
#: what CPython's parser and compiler accept.
_INLINE_CHARS = 500

#: An operator's spelling: a format over its operands, the precedence of
#: the result, the least precedence each operand slot takes without
#: parentheses, and how many times the format reads each operand.
_Spelling = tuple[str, int, tuple[int, ...], tuple[int, ...]]

#: ``+``, ``-`` and ``*`` are left-associative: a right operand at the
#: operator's own level keeps its parentheses, so ``a + (b + c)`` is
#: never re-associated.
_ARITHMETIC: dict[str, _Spelling] = {
    "+": ("{0} + {1}", _ADD, (_ADD, _MUL), (1, 1)),
    "-": ("{0} - {1}", _ADD, (_ADD, _MUL), (1, 1)),
    "*": ("{0} * {1}", _MUL, (_MUL, _UNARY), (1, 1)),
    "neg": ("-{0}", _UNARY, (_UNARY,), (1,)),
}


class _Stream:
    """A value-numbered sink of straight-line code, rendered as
    expressions.

    Lowering *records* one entry per distinct operation: a spelling over
    operand names, keyed on both, so structurally repeated subtrees
    collapse to one entry.  Leaves are never entries: a parameter,
    driver or state read, a literal, or another stream's temp is spelled
    where it is read.  :meth:`render` then writes an entry that is read
    exactly once inline where it is read, parenthesised only where
    Python's precedence needs it; every other entry -- read twice or
    more (value-number and memo hits, operands a guard reads twice), or
    kept (:meth:`keep`, :meth:`export`) -- is bound to its temp once.
    The operations and their operands are the same either way, so the
    rendering does not change a bit of any result.  This base class
    spells each protected operator as one scalar inline guard.

    :attr:`route` maps a subtree's dependency mask to the stream that
    lowers it, and :meth:`export` turns a temp of this stream into the
    leaf another stream reads it through.  Nothing is inlined across
    streams.
    """

    # Every guard keeps the *protected* branch on the `if` side of the
    # conditional.  That matters for NaN operands (any comparison with
    # NaN is False): ``0.0 if -eps < y < eps else x / y`` takes the same
    # branch as protected_div's ``abs(y) < eps`` for NaN, +-0.0, +-eps
    # and +-inf, so a NaN denominator propagates, while the flipped
    # spelling ``x / y if ... else 0.0`` would map it to 0.0.  ``log``
    # takes its magnitude with ``abs``, as protected_log does: a NaN
    # argument then keeps protected_log's sign bit, where negating a
    # value that fails ``x >= 0.0`` would flip it.  An operand a guard
    # reads twice is bound, so its slot precedence never applies.
    spellings: dict[str, _Spelling] = {
        **_ARITHMETIC,
        "/": (
            f"0.0 if {-DIV_EPS!r} < {{1}} < {DIV_EPS!r} else {{0}} / {{1}}",
            _COND, (_MUL, _ATOM), (1, 2),
        ),
        "exp": (
            f"_exp({EXP_MAX!r} if {{0}} > {EXP_MAX!r} else {{0}})",
            _ATOM, (_ATOM,), (2,),
        ),
        "log": (
            f"0.0 if {-LOG_EPS!r} < {{0}} < {LOG_EPS!r} else _log(_abs({{0}}))",
            _COND, (_ATOM,), (2,),
        ),
        # Python's min/max return the *first* argument on ties and on
        # any NaN-poisoned comparison; spell out the exact builtin
        # semantics.
        "min": ("{1} if {1} < {0} else {0}", _COND, (_ATOM, _ATOM), (2, 2)),
        "max": ("{1} if {1} > {0} else {0}", _COND, (_ATOM, _ATOM), (2, 2)),
        # A leaf bound to a temp of its own (see :meth:`share`).
        "leaf": ("{0}", _ATOM, (_ATOM,), (1,)),
    }

    def __init__(self, prefix: str) -> None:
        #: ``(temp, format, precedence, operands, slot precedences)`` per
        #: entry, operands before their readers.
        self._entries: list[
            tuple[str, str, int, tuple[str, ...], tuple[int, ...]]
        ] = []
        self._values: dict[tuple[str, tuple[str, ...]], str] = {}
        self._reads: dict[str, int] = {}
        self._kept: set[str] = set()
        self._prefix = prefix
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

    def apply(self, op: str, *operands: str) -> str:
        """The name this stream reads ``op`` over ``operands`` by."""
        key = (op, operands)
        name = self._values.get(key)
        if name is not None:
            return name
        try:
            template, precedence, slots, uses = self.spellings[op]
        except KeyError:
            raise CompilationError(f"unknown operator {op!r}") from None
        entries = self._entries
        name = self._values[key] = f"{self._prefix}{len(entries)}"
        entries.append((name, template, precedence, operands, slots))
        reads = self._reads
        for operand, use in zip(operands, uses):
            reads[operand] = reads.get(operand, 0) + use
        return name

    def keep(self, *names: str) -> None:
        """Bind ``names`` (results) to their temps."""
        self._kept.update(names)

    def share(self, name: str) -> str:
        """The name other streams' closures read this stream's ``name``
        by: its temp, kept bound.  A subscript or call leaf (``P[i]``,
        ``float('inf')``) gets a temp of its own, so a closure reads it
        once per parameter vector rather than once per row; a finite
        literal is read as it is."""
        if name.endswith(("]", ")")):
            name = self.apply("leaf", name)
        self._kept.add(name)
        return name

    def export(self, name: str) -> str:
        """The leaf spelling another stream reads temp ``name`` through."""
        read = self._exports.get(name)
        if read is None:
            read = self._exports[name] = self.reader.format(len(self.exported))
            self.exported.append(name)
            self._kept.add(name)
        return read

    def render(self, indent: str) -> list[str]:
        """The stream's assignments, indented by ``indent``."""
        reads, kept = self._reads, self._kept
        inlined: dict[str, tuple[str, int]] = {}
        lines = []
        for name, template, precedence, operands, slots in self._entries:
            texts = []
            for operand, slot in zip(operands, slots):
                held = inlined.pop(operand, None)
                if held is None:
                    texts.append(operand)
                elif held[1] >= slot:
                    texts.append(held[0])
                else:
                    texts.append(f"({held[0]})")
            text = template.format(*texts)
            if (
                reads.get(name) == 1
                and name not in kept
                and len(text) <= _INLINE_CHARS
            ):
                inlined[name] = (text, precedence)
            else:
                lines.append(f"{indent}{name} = {text}")
        return lines


class _ArrayStream(_Stream):
    """A stream spelling the protected operators as NumPy helper calls.

    The helpers (``_pdiv`` and friends) are the vectorised twins of the
    interpreter's, so the array semantics stay defined in exactly one
    place; the station kernel's namespace binds them
    (:data:`_ARRAY_OPERATORS`).
    """

    spellings = {
        **_ARITHMETIC,
        "/": ("_pdiv({0}, {1})", _ATOM, (_COND, _COND), (1, 1)),
        "exp": ("_pexp({0})", _ATOM, (_COND,), (1,)),
        "log": ("_plog({0})", _ATOM, (_COND,), (1,)),
        "min": ("_pmin({0}, {1})", _ATOM, (_COND, _COND), (1, 1)),
        "max": ("_pmax({0}, {1})", _ATOM, (_COND, _COND), (1, 1)),
    }


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
                    name = target.export(name)
                else:
                    name = target.share(name)
                memo[key] = name
                return name
        kind = type(expr)
        if kind is BinOp:
            lhs = self.lower(expr.lhs, stream)
            name = stream.apply(expr.op, lhs, self.lower(expr.rhs, stream))
        elif kind is UnOp:
            name = stream.apply(expr.op, self.lower(expr.operand, stream))
        elif kind is Ext:
            name = self.lower(expr.operand, stream)
        elif kind is Const:
            value = expr.value
            # A non-finite float's repr (``nan``, ``inf``) is no literal.
            # A negative literal is a unary expression, which is valid
            # in every operand slot of every spelling.
            name = repr(value) if math.isfinite(value) else f"float('{value}')"
        else:
            name = self._lookup(expr)
        memo[key] = name
        return name

    def _lookup(self, leaf: Expr) -> str:
        spelling = self._spellings.get(type(leaf))
        if spelling is None:
            raise CompilationError(
                f"cannot compile node type {type(leaf).__name__}"
            )
        spelled, kind = spelling
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
    step.keep(*results)
    header = f"def {name}(P, V, S):"
    returns = "    return (" + ", ".join(results) + ("," if len(results) == 1 else "") + ")"
    return "\n".join([header, *step.render("    "), returns])


def _compile_source(
    source: str, name: str, namespace: dict[str, Any] | None = None
) -> Callable:
    if namespace is None:
        namespace = {"_exp": math.exp, "_log": math.log, "_abs": abs}
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
    step = _Stream("t")
    step.route = _routes(
        lambda mask: None if mask & _DEP_S else hoist if mask & _DEP_V else setup
    )
    hoist.route = _routes(lambda mask: None if mask & _DEP_V else setup)
    hoist.reader = "c{}"
    lowering = _Lowering(
        ("P[{0}]", "VB[{0}]", "S{0}"), param_order, var_order, state_order
    )
    results = [lowering.lower(expr, step) for expr in exprs]
    step.keep(*results)
    frontier = hoist.exported
    hoisted = "".join(f"{name}, " for name in frontier)
    states = "".join(f", S{index}" for index in range(len(state_order)))
    lines = [
        "def _make_station(P):",
        *setup.render("    "),
        "    def hoist(VB):",
        '        with _errstate(all="ignore"):',
        *hoist.render("            "),
        f"            return _frontier(({hoisted}), VB)",
        f"    def station(F{states}):",
    ]
    if frontier:
        arguments = "".join(f"c{j}, " for j in range(len(frontier)))
        lines.append(f"        {arguments}= F")
    lines.extend(step.render("        "))
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
        "_abs": abs,
        **_ARRAY_OPERATORS,
        "_frontier": _frontier_rows,
        "_errstate": np.errstate,
    }
    make = _compile_source(source, "_make_station", namespace)
    return CompiledStationKernel(make, source, n_frontier)


#: Process-global kernel cache shared by every model in this process
#: (worker processes each grow their own after pickling).
KERNEL_CACHE = LRU(512)
