"""A bounded memo of genotype -> phenotype derivation, per derivation shape.

Turning a derivation tree into a :class:`~repro.dynamics.system.ProcessModel`
(derive, lint validation, translation, model construction and the
canonical structure key) is a large share of an evaluation's cost.
Most of those derivations repeat one seen moments earlier:
Gaussian proposals and hill-climb parameter moves change constant
values, never the derivation's *shape*.  :class:`PhenotypeCache` keys a
finished model on that shape and rebuilds only the parameter tuple on a
hit.

A shape is everything the derived model depends on except the values of
the random constants (``rconst`` lexemes):

* per derivation node, in pre-order with children in insertion order
  (the order :meth:`~repro.tag.derivation.DerivationTree.rconsts`
  walks), the identity of its elementary tree, its lexemes in sorted
  address order, and its child addresses;
* each lexeme's symbol and payload, with ``rconst`` values replaced by a
  marker and every other float keyed by its exact bits (``-0.0`` and
  ``0.0`` differ);
* the state names, the driver order and the expert parameter names.

Elementary trees are keyed by ``id``; an entry holds references to its
trees, so no id can be reused while the entry lives.
:meth:`~repro.gp.individual.Individual.phenotype` remains the uncached
reference the cache is tested against.
"""

from __future__ import annotations

import copy
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.dynamics.system import ProcessModel
from repro.gp.individual import Individual
from repro.tag.derivation import DerivationNode
from repro.tag.derive import derive, to_expressions
from repro.tag.trees import ElementaryTree, RConst

#: Entries kept (least recently used first out).  Near the population
#: size: one generation's shapes fit, and larger tables gain little hit
#: rate for their memory.
PHENOTYPE_CACHE_SIZE = 64

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


def _walk_shape(
    node: DerivationNode, parts: list[tuple], rconsts: list[RConst]
) -> None:
    """Append ``node``'s subtree to ``parts``; collect its random
    constants in :meth:`DerivationTree.rconsts` order."""
    lexemes = node.lexemes
    slots = []
    for address in sorted(lexemes):
        lexeme = lexemes[address]
        payload = lexeme.payload
        if payload is not None and payload[0] == "rconst":
            rconsts.append(payload[1])
        slots.append((address, lexeme.symbol, _payload_key(payload)))
    children = node.children
    parts.append((id(node.tree), tuple(slots), tuple(children)))
    for child in children.values():
        _walk_shape(child, parts, rconsts)


def shape_key(
    individual: Individual,
    state_names: tuple[str, ...],
    var_order: tuple[str, ...],
) -> tuple[tuple, list[RConst]]:
    """The individual's shape key and its random constants in genome order."""
    parts: list[tuple] = []
    rconsts: list[RConst] = []
    _walk_shape(individual.derivation.root, parts, rconsts)
    key = (tuple(parts), state_names, var_order, tuple(individual.params))
    return key, rconsts


@dataclass
class _Template:
    """A derived model plus how to fill its parameter tuple.

    ``recipe[i]`` indexes the pool ``[*params.values(), *rconst values]``
    for ``model.param_order[i]``; ``trees`` pins the elementary trees
    whose ids the key holds.
    """

    model: ProcessModel
    recipe: tuple[int, ...]
    trees: tuple[ElementaryTree, ...]


class PhenotypeCache:
    """Bounded LRU of phenotype templates keyed by derivation shape.

    :meth:`phenotype` returns what ``individual.phenotype(state_names,
    var_order)`` returns, plus whether the memo served it, and calls
    ``individual.phenotype`` for genomes that are not :class:`Individual`
    derivation trees.  A miss runs the full derivation once, validation
    included, and records which genome constant became each ``_Rk``; a
    failure raises and is never cached.  A hit returns a shallow copy of
    the template model (through :meth:`ProcessModel.__getstate__`, so it
    keeps the memoised structure key but no compiled kernels) and the
    parameter tuple rebuilt from the individual's current values.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, _Template] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

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
        template = self._entries.get(key)
        hit = template is not None
        if hit:
            self._entries.move_to_end(key)
        else:
            template = self._derive(individual, rconsts, state_names, var_order)
            self._entries[key] = template
            if len(self._entries) > PHENOTYPE_CACHE_SIZE:
                self._entries.popitem(last=False)
        pool = [*individual.params.values(), *(r.value for r in rconsts)]
        params = tuple(map(pool.__getitem__, template.recipe))
        return copy.copy(template.model), params, hit

    @staticmethod
    def _derive(
        individual: Individual,
        rconsts: list[RConst],
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
    ) -> _Template:
        """The uncached path of :meth:`Individual.phenotype`, also
        recording where each ``_Rk`` comes from."""
        derivation = individual.derivation
        met: list[RConst] = []
        expressions, __ = to_expressions(derive(derivation), met)
        if len(expressions) != len(state_names):
            raise ValueError(
                f"derived {len(expressions)} equations for "
                f"{len(state_names)} states"
            )
        model = ProcessModel.from_equations(
            dict(zip(state_names, expressions)),
            var_order=var_order,
            extra_params=tuple(individual.params),
        )
        model.structure_key()
        # Pool positions: expert parameters first, then genome constants;
        # constants win name clashes, as in ``{**params, **rvalues}``.
        slot = {name: index for index, name in enumerate(individual.params)}
        genome_index = {id(r): index for index, r in enumerate(rconsts)}
        base = len(slot)
        for k, rconst in enumerate(met):
            slot[f"_R{k}"] = base + genome_index[id(rconst)]
        recipe = tuple(slot[name] for name in model.param_order)
        trees = tuple(node.tree for node in derivation.walk())
        return _Template(model=model, recipe=recipe, trees=trees)
