"""A bounded memo of genotype -> phenotype derivation, per derivation shape.

Turning a derivation tree into a :class:`~repro.dynamics.system.ProcessModel`
(lint validation, translation, model construction and the exact
structure key) is a large share of an evaluation's cost.  Most of those
derivations repeat one seen moments earlier: Gaussian proposals and
hill-climb parameter moves change constant values, never the
derivation's *shape*.  :class:`PhenotypeCache` keys a finished model on
that shape and rebuilds only the parameter tuple on a hit.

A shape is everything the derived model depends on except the values of
the random constants (``rconst`` lexemes), split by top-level equation
(the ``Model`` root alpha's children):

* per equation, the root's lexemes and child addresses under that
  equation's address, then per derivation node below them, in pre-order
  with children in insertion order, the identity of its elementary
  tree, its lexemes in sorted address order, and its child addresses;
* each lexeme's symbol and payload, with ``rconst`` values replaced by a
  marker and every other float keyed by its exact bits (``-0.0`` and
  ``0.0`` differ);
* the root's elementary tree and the order its children were inserted
  in, the state names, the driver order and the expert parameter names.

Below the models sits a *fragment table*: translated equations keyed on
the equation index, that equation's shape and the number of ``_Rk``
constants before it (which fixes the names of its own).  A fragment
holds the equation's expression, its exact key, its free names and
which of its constants becomes which ``_Rk``.  A model miss translates
only the equations the table lacks (:func:`repro.tag.derive.translate_equation`,
no derived tree) and builds the model from the fragments' free names
and keys without walking the expressions again.  A hill-climb neighbour
changes one derivation subtree, so a miss usually translates one
equation.

Elementary trees are keyed by ``id``; model entries and fragments hold
references to the trees they key on, so no id can be reused while the
entry lives (an unpickled individual carries copies with new ids, and
misses).  Both tables are cleared by the evaluator's ``reset`` and never
pickled.  :meth:`~repro.gp.individual.Individual.phenotype` remains the
uncached reference the cache is tested against.
"""

from __future__ import annotations

import copy
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.dynamics.system import FreeNames, ProcessModel
from repro.expr.ast import Expr, exact_key
from repro.gp.individual import Individual
from repro.tag.derivation import DerivationNode
from repro.tag.derive import translate_equation, validate
from repro.tag.symbols import MODEL
from repro.tag.trees import Address, ElementaryTree, Lexeme, RConst

#: Entries kept (least recently used first out).  Near the population
#: size: one generation's shapes fit, and larger tables gain little hit
#: rate for their memory.
PHENOTYPE_CACHE_SIZE = 64

#: Equation fragments kept (least recently used first out).  On the
#: river-scalar benchmark workload 128 entries reused 37% of the
#: equations of model misses against 39% for an unbounded table, for
#: 0.3 MB of peak RSS; 512 entries cost 1.8 MB.
FRAGMENT_TABLE_SIZE = 128

#: Stands in for an ``rconst`` lexeme's value in a shape key.
_RCONST_MARK = ("rconst",)

_float_bits = struct.Struct("<d").pack


def _payload_key(payload: Any) -> Hashable:
    if payload is None:
        return None
    kind, value = payload
    if kind == "rconst":
        return _RCONST_MARK
    if isinstance(value, float):
        return (kind, type(value), _float_bits(value))
    return (kind, type(value), value)


def _slots(
    lexemes: dict[Address, Lexeme], addresses: list[Address], rconsts: list[RConst]
) -> tuple:
    """The lexemes at ``addresses`` as ``(address, symbol, payload key)``;
    collects their random constants in that order."""
    slots = []
    for address in addresses:
        lexeme = lexemes[address]
        payload = lexeme.payload
        if payload is not None and payload[0] == "rconst":
            rconsts.append(payload[1])
        slots.append((address, lexeme.symbol, _payload_key(payload)))
    return tuple(slots)


def _walk_shape(
    node: DerivationNode, parts: list[tuple], rconsts: list[RConst]
) -> None:
    """Append ``node``'s subtree to ``parts``; collect its random
    constants in :meth:`DerivationTree.rconsts` order."""
    slots = _slots(node.lexemes, sorted(node.lexemes), rconsts)
    children = node.children
    parts.append((id(node.tree), slots, tuple(children)))
    for child in children.values():
        _walk_shape(child, parts, rconsts)


def _equation_shapes(
    root: DerivationNode, rconsts: list[RConst]
) -> tuple[tuple, ...] | None:
    """One shape per top-level equation of the derivation at ``root``.

    Equation ``i`` is the root alpha's child ``i``: its shape is the
    number of its random constants, then the root's lexemes and child
    addresses under address ``(i,)``, then each such child's subtree as
    :func:`_walk_shape` walks it.  The random constants are appended to
    ``rconsts`` equation by equation, in shape order.  None when the
    derivation does not split so (a root alpha not rooted at ``Model``,
    an adjunction at its root, or a lexeme or child at an address outside
    its equations).
    """
    template = root.tree.root
    if template.symbol != MODEL:
        return None
    count = len(template.children)
    slots: list[list[Address]] = [[] for __ in range(count)]
    children: list[list[Address]] = [[] for __ in range(count)]
    for addresses, grouped in (
        (sorted(root.lexemes), slots),
        (root.children, children),
    ):
        for address in addresses:
            if not address or address[0] >= count:
                return None
            grouped[address[0]].append(address)
    shapes = []
    for index in range(count):
        start = len(rconsts)
        lexemes = _slots(root.lexemes, slots[index], rconsts)
        parts: list[tuple] = []
        for address in children[index]:
            _walk_shape(root.children[address], parts, rconsts)
        shapes.append(
            (len(rconsts) - start, lexemes, tuple(children[index]), *parts)
        )
    return tuple(shapes)


def shape_key(
    individual: Individual,
    state_names: tuple[str, ...],
    var_order: tuple[str, ...],
) -> tuple[tuple | None, list[RConst]]:
    """The individual's model key and its random constants in shape order.

    The key is ``(root tree id, root child order, equation shapes, state
    names, driver order, parameter names)``, or None when the derivation
    does not split into equations (:func:`_equation_shapes`).  The
    fragments do not need the order the root's children were inserted
    in; keeping it makes the key split models exactly where one walk
    over the whole derivation would, so the memo's hits and misses stay
    those of that walk.
    """
    root = individual.derivation.root
    rconsts: list[RConst] = []
    shapes = _equation_shapes(root, rconsts)
    if shapes is None:
        return None, rconsts
    key = (
        id(root.tree),
        tuple(root.children),
        shapes,
        state_names,
        var_order,
        tuple(individual.params),
    )
    return key, rconsts


@dataclass
class _Template:
    """A derived model plus how to fill its parameter tuple.

    ``recipe[i]`` indexes the pool ``[*params.values(), *rconst values]``
    (constants in shape order) for ``model.param_order[i]``; ``trees``
    pins the elementary trees whose ids the key holds.
    """

    model: ProcessModel
    recipe: tuple[int, ...]
    trees: tuple[ElementaryTree, ...]


@dataclass
class _Fragment:
    """One translated equation and what a model needs of it.

    ``consts[j]`` is the position, among the equation's random constants
    in shape order, of the constant named ``_R{offset + j}``; ``trees``
    pins the elementary trees whose ids the fragment's key holds.
    """

    expr: Expr
    key: str
    free: FreeNames
    consts: tuple[int, ...]
    trees: tuple[ElementaryTree, ...]


class PhenotypeCache:
    """Bounded LRU of phenotype templates keyed by derivation shape, over
    a bounded LRU of equation fragments.

    :meth:`phenotype` returns what ``individual.phenotype(state_names,
    var_order)`` returns, plus whether the memo served it, and calls
    ``individual.phenotype`` for genomes that are not :class:`Individual`
    derivation trees or whose derivation does not split into equations.
    A miss validates the derivation, composes the model from its
    equations' fragments (translating only the equations the fragment
    table lacks) and records which genome constant becomes each ``_Rk``;
    a failure raises and caches nothing.  A hit returns a shallow copy of
    the template model (through :meth:`ProcessModel.__getstate__`, so it
    keeps the memoised structure key but no compiled kernels) and the
    parameter tuple rebuilt from the individual's current values.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, _Template] = OrderedDict()
        self._fragments: OrderedDict[Hashable, _Fragment] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._fragments.clear()

    def phenotype(
        self,
        individual: Individual,
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
    ) -> tuple[ProcessModel, tuple[float, ...], bool]:
        if not isinstance(individual, Individual):
            # Duck-typed genomes (the GGGP baseline's) derive themselves.
            return (*individual.phenotype(state_names, var_order), False)
        key, rconsts = shape_key(individual, state_names, var_order)
        if key is None:
            # No grammar built from prior knowledge makes such a root.
            return (*individual.phenotype(state_names, var_order), False)
        template = self._entries.get(key)
        hit = template is not None
        if hit:
            self._entries.move_to_end(key)
        else:
            template = self._derive(
                individual, key[2], rconsts, state_names, var_order
            )
            self._entries[key] = template
            if len(self._entries) > PHENOTYPE_CACHE_SIZE:
                self._entries.popitem(last=False)
        pool = [*individual.params.values(), *(r.value for r in rconsts)]
        params = tuple(map(pool.__getitem__, template.recipe))
        return copy.copy(template.model), params, hit

    def _derive(
        self,
        individual: Individual,
        shapes: tuple[tuple, ...],
        rconsts: list[RConst],
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
    ) -> _Template:
        """The uncached path of :meth:`Individual.phenotype`, composed
        from equation fragments, also recording where each ``_Rk`` comes
        from."""
        derivation = individual.derivation
        validate(derivation)
        root = derivation.root
        # Pool positions: expert parameters first, then genome constants;
        # constants win name clashes, as in ``{**params, **rvalues}``.
        slot = {name: index for index, name in enumerate(individual.params)}
        base = len(slot)
        fragments: list[_Fragment] = []
        new: list[tuple[Hashable, _Fragment]] = []
        before = 0  # genome constants of the equations before this one
        offset = 0  # ``_Rk`` constants of the equations before this one
        for index, shape in enumerate(shapes):
            key = (id(root.tree), index, shape, offset)
            fragment = self._fragments.get(key)
            if fragment is None:
                own = rconsts[before : before + shape[0]]
                fragment = _fragment(root, index, offset, own)
                new.append((key, fragment))
            else:
                self._fragments.move_to_end(key)
            for k, position in enumerate(fragment.consts, offset):
                slot[f"_R{k}"] = base + before + position
            fragments.append(fragment)
            offset += len(fragment.consts)
            before += shape[0]
        if len(fragments) != len(state_names):
            raise ValueError(
                f"derived {len(fragments)} equations for "
                f"{len(state_names)} states"
            )
        model = ProcessModel.from_equations(
            {name: f.expr for name, f in zip(state_names, fragments)},
            var_order=var_order,
            extra_params=tuple(individual.params),
            free=[f.free for f in fragments],
            keys=[f.key for f in fragments],
        )
        for key, fragment in new:
            self._fragments[key] = fragment
            if len(self._fragments) > FRAGMENT_TABLE_SIZE:
                self._fragments.popitem(last=False)
        recipe = tuple(slot[name] for name in model.param_order)
        trees = tuple(node.tree for node in derivation.walk())
        return _Template(model=model, recipe=recipe, trees=trees)


def _fragment(
    root: DerivationNode, index: int, offset: int, own: list[RConst]
) -> _Fragment:
    """Translate equation ``index`` of a validated derivation; ``own``
    holds the equation's random constants in shape order."""
    met: list[RConst] = []
    expr = translate_equation(root, index, offset, met)
    position = {id(rconst): j for j, rconst in enumerate(own)}
    trees = [root.tree]
    for address, child in root.children.items():
        if address[0] == index:
            trees.extend(node.tree for node in child.walk())
    return _Fragment(
        expr=expr,
        key=exact_key(expr),
        free=FreeNames.of(expr),
        consts=tuple(position[id(rconst)] for rconst in met),
        trees=tuple(trees),
    )
