"""TAG derivation trees: the genome of genetic model revision.

A derivation tree (paper Figure 4) records *how* a derived tree was built:

* the root node is labelled with an alpha-tree (the input process) rooted
  at the start symbol;
* every other node is labelled with a beta-tree adjoined at a recorded
  Gorn address of its parent's elementary tree;
* each node carries the lexemes substituted into the open substitution
  slots (lexicons) of its elementary tree -- the paper's *restricted
  substitution*, under which substituted alpha-trees have no children.

The derivation tree is the structure the genetic operators manipulate
(:mod:`repro.gp.operators`); :mod:`repro.tag.derive` turns it into a
derived tree and finally an expression AST.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.tag.grammar import TagGrammar
from repro.tag.trees import (
    Address,
    AlphaTree,
    ElementaryTree,
    Lexeme,
    RConst,
)


class DerivationError(ValueError):
    """Raised for invalid derivation-tree manipulations."""


def _copy_lexeme(lexeme: Lexeme) -> Lexeme:
    """Deep-copy a lexeme so mutable RConst payloads are not shared."""
    payload = lexeme.payload
    if payload is not None and payload[0] == "rconst":
        payload = ("rconst", payload[1].copy())
    return Lexeme(lexeme.symbol, payload)


@dataclass
class DerivationNode:
    """One node of a derivation tree.

    Attributes:
        tree: The elementary tree this node is labelled with (an alpha-tree
            for the root, a beta-tree elsewhere).
        children: Adjunctions into this node's elementary tree, keyed by the
            Gorn address at which each child's beta-tree adjoins.  At most
            one adjunction per address.
        lexemes: Lexemes substituted into this elementary tree's open
            substitution slots, keyed by slot address.
    """

    tree: ElementaryTree
    children: dict[Address, "DerivationNode"] = field(default_factory=dict)
    lexemes: dict[Address, Lexeme] = field(default_factory=dict)

    def walk(self) -> Iterator["DerivationNode"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    @property
    def size(self) -> int:
        """Number of derivation nodes in this subtree."""
        return 1 + sum(child.size for child in self.children.values())

    def copy(self) -> "DerivationNode":
        """Deep-copy this subtree (lexeme RConsts are not shared)."""
        return DerivationNode(
            tree=self.tree,
            children={
                address: child.copy() for address, child in self.children.items()
            },
            lexemes={
                address: _copy_lexeme(lexeme)
                for address, lexeme in self.lexemes.items()
            },
        )

    def open_adjunction_addresses(self, grammar: TagGrammar) -> list[Address]:
        """Addresses of this elementary tree where adjunction is possible
        and no child is attached yet."""
        candidates = self.tree.adjunction_addresses(grammar.adjoinable_symbols)
        return [address for address in candidates if address not in self.children]

    def fill_lexemes(self, grammar: TagGrammar, rng: random.Random) -> None:
        """Create lexemes for any unfilled substitution slots."""
        for address in self.tree.substitution_addresses():
            if address not in self.lexemes:
                symbol = self.tree.node_at(address).symbol
                self.lexemes[address] = grammar.make_lexeme(symbol, rng)

    def rconsts(self) -> list[RConst]:
        """All mutable random constants in this subtree, in stable order."""
        values: list[RConst] = []
        for node in self.walk():
            for address in sorted(node.lexemes):
                payload = node.lexemes[address].payload
                if payload is not None and payload[0] == "rconst":
                    values.append(payload[1])
        return values


def _walk_with_parents(
    parent: DerivationNode | None,
    address: Address | None,
    node: DerivationNode,
) -> Iterator[tuple[DerivationNode | None, Address | None, DerivationNode]]:
    yield parent, address, node
    for child_address, child in list(node.children.items()):
        yield from _walk_with_parents(node, child_address, child)


@dataclass
class DerivationTree:
    """A complete derivation: a rooted tree of :class:`DerivationNode`."""

    root: DerivationNode

    def __post_init__(self) -> None:
        if not isinstance(self.root.tree, AlphaTree):
            raise DerivationError("derivation root must be an alpha-tree")

    @property
    def size(self) -> int:
        """Chromosome size: the number of derivation nodes."""
        return self.root.size

    def copy(self) -> "DerivationTree":
        return DerivationTree(self.root.copy())

    def walk(self) -> Iterator[DerivationNode]:
        return self.root.walk()

    def walk_with_parents(
        self,
    ) -> Iterator[tuple[DerivationNode | None, Address | None, DerivationNode]]:
        """Yield ``(parent, address, node)`` triples in pre-order."""
        return _walk_with_parents(None, None, self.root)

    def open_sites(self, grammar: TagGrammar) -> list[tuple[DerivationNode, Address]]:
        """All ``(node, address)`` pairs where a new adjunction could occur."""
        sites: list[tuple[DerivationNode, Address]] = []
        for node in self.walk():
            for address in node.open_adjunction_addresses(grammar):
                sites.append((node, address))
        return sites

    def rconsts(self) -> list[RConst]:
        """All mutable random constants in the derivation, in stable order."""
        return self.root.rconsts()

    def validate(self, grammar: TagGrammar | None = None) -> None:
        """Check structural invariants; raise on violation.

        Invariants: the root is a start-symbol alpha-tree of the grammar;
        every non-root node's beta-tree adjoins at a compatible address of
        its parent's elementary tree; every substitution slot of every
        elementary tree is filled with a lexeme of matching symbol.

        Delegates to the derivation pass of :mod:`repro.lint`; without a
        grammar only the grammar-independent subset runs (this is the
        cheap hot-path check :func:`repro.tag.derive.derive` performs).
        """
        # Imported lazily: repro.lint imports this module at top level.
        from repro.lint.derivation_rules import check_derivation
        from repro.lint.diagnostics import Severity

        findings = [
            finding
            for finding in check_derivation(self, grammar)
            if finding.severity >= Severity.ERROR
        ]
        if findings:
            raise DerivationError(
                "; ".join(finding.format() for finding in findings)
            )
