"""Genetic operators on derivation-tree individuals (Section III-B2).

Crossover and subtree mutation act on the derivation tree; Gaussian
mutation acts on the constant parameters (expert parameters, constrained by
their Table III priors, and ``R`` constants carried inside lexemes).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.gp.config import GMRConfig
from repro.gp.individual import Individual
from repro.gp.knowledge import PriorKnowledge
from repro.tag.derivation import DerivationNode, DerivationTree
from repro.tag.grammar import TagGrammar
from repro.tag.trees import Address


def _non_root_nodes(
    derivation: DerivationTree,
) -> list[tuple[DerivationNode, Address, DerivationNode]]:
    """All ``(parent, address, node)`` triples excluding the root."""
    return [
        (parent, address, node)
        for parent, address, node in derivation.walk_with_parents()
        if parent is not None
    ]


def crossover(
    left: Individual,
    right: Individual,
    grammar: TagGrammar,
    config: GMRConfig,
    rng: random.Random,
) -> tuple[Individual, Individual] | None:
    """Swap compatible random subtrees between two individuals.

    Subtrees are compatible when each can adjoin at the address the other
    is attached to; with matched root/foot labels this reduces to equal
    beta-tree root symbols.  The swap is retried up to
    ``config.crossover_retries`` times (the paper's retry limit) and must
    keep both children within the chromosome size bounds.  Returns None if
    no compatible pair is found.
    """
    child_a = left.copy()
    child_b = right.copy()
    nodes_a = _non_root_nodes(child_a.derivation)
    nodes_b = _non_root_nodes(child_b.derivation)
    if not nodes_a or not nodes_b:
        return None
    for __ in range(max(1, config.crossover_retries)):
        parent_a, address_a, node_a = rng.choice(nodes_a)
        parent_b, address_b, node_b = rng.choice(nodes_b)
        if node_a.tree.root.symbol != node_b.tree.root.symbol:
            continue
        size_a = child_a.size - node_a.size + node_b.size
        size_b = child_b.size - node_b.size + node_a.size
        if not (config.min_size <= size_a <= config.max_size):
            continue
        if not (config.min_size <= size_b <= config.max_size):
            continue
        parent_a.children[address_a] = node_b
        parent_b.children[address_b] = node_a
        child_a.invalidate()
        child_b.invalidate()
        return child_a, child_b
    return None


def subtree_mutation(
    individual: Individual,
    grammar: TagGrammar,
    config: GMRConfig,
    rng: random.Random,
    size_slack: int = 2,
) -> Individual | None:
    """Replace a random subtree with a fresh one of similar size.

    The new subtree is grown at the same attachment address from a
    compatible beta-tree, targeting the removed subtree's size within
    ``size_slack`` (the paper's "similar size to x").  Returns None when
    the individual has no removable subtree.
    """
    from repro.gp.init import attach, grow_node  # local import: cycle

    child = individual.copy()
    nodes = _non_root_nodes(child.derivation)
    if not nodes:
        return None
    parent, address, node = rng.choice(nodes)
    old_size = node.size
    symbol = parent.tree.node_at(address).symbol
    candidates = grammar.betas_for(symbol)
    if not candidates:
        return None
    del parent.children[address]
    beta = rng.choice(candidates)
    new_node = attach(grammar, parent, address, beta, rng)
    target = max(1, old_size + rng.randint(-size_slack, size_slack))
    # Cap the replacement so the whole individual stays within MAXSIZE.
    headroom = config.max_size - (child.size - new_node.size)
    grow_node(grammar, new_node, min(target, headroom), rng)
    child.invalidate()
    return child


def gaussian_mutation(
    individual: Individual,
    knowledge: PriorKnowledge,
    config: GMRConfig,
    rng: random.Random,
    sigma_scale: float = 1.0,
) -> Individual:
    """Tune all constant parameters by truncated Gaussian steps.

    Per Section III-B3: each parameter's proposal is centred on its current
    value (the new value becomes the new mean), the standard deviation is
    ``gaussian_sigma_factor`` times the prior mean's magnitude, scaled by
    ``sigma_scale`` (the linear ramp-down in the final generations), and
    out-of-range samples are clipped to the boundary.
    """
    child = individual.copy()
    factor = config.gaussian_sigma_factor * sigma_scale
    for name, prior in knowledge.priors.items():
        current = child.params.get(name, prior.mean)
        sigma = factor * max(abs(prior.mean), 1e-12)
        child.params[name] = prior.clip(rng.gauss(current, sigma))
    low, high = knowledge.rconst_bounds
    for rconst in child.derivation.rconsts():
        # Random constants start in [0, 1] (Table II) but the revisions the
        # paper reports contain values far outside it (e.g. 253.4 in its
        # eq. (7)), so their mutation keeps a unit sigma floor: the walk can
        # escape the unit interval instead of stalling at sigma ~ |value|.
        if rconst.sigma_hint is not None:
            sigma = factor * rconst.sigma_hint
        else:
            sigma = factor * max(abs(rconst.value), abs(rconst.mean), 1.0)
        value = rng.gauss(rconst.value, sigma)
        rconst.value = min(max(value, low), high)
    child.invalidate()
    return child


def gaussian_mutation_best_of(
    individual: Individual,
    knowledge: PriorKnowledge,
    config: GMRConfig,
    rng: random.Random,
    sigma_scale: float,
    batch_fitness_fn: "Callable[[list[Individual]], list[float]]",
) -> Individual:
    """Propose ``config.gaussian_proposals`` Gaussian tweaks, keep the best.

    The propose-K-then-pick-best pattern: every proposal shares the
    parent's structure, so after the first one compiles, the others
    reuse its kernel.  Proposals are drawn (and so consume the RNG
    stream) in order; ties on fitness keep the earliest proposal.  With ``gaussian_proposals=1``
    this is a single :func:`gaussian_mutation` followed by one
    evaluation -- the engine's historical behaviour.

    Returns the chosen proposal with its fitness already set.
    """
    proposals = [
        gaussian_mutation(individual, knowledge, config, rng, sigma_scale)
        for _ in range(config.gaussian_proposals)
    ]
    fitnesses = batch_fitness_fn(proposals)
    best_index = min(range(len(proposals)), key=fitnesses.__getitem__)
    return proposals[best_index]


def replication(individual: Individual) -> Individual:
    """Copy an individual unchanged (the replication operator)."""
    child = individual.copy()
    child.fitness = individual.fitness
    child.fully_evaluated = individual.fully_evaluated
    return child
