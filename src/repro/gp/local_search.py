"""Local search: insertion, deletion, and stochastic hill climbing.

Section III-D: after crossover/mutation, each offspring goes through a
short series of local-search moves.  *Insertion* adjoins a random
compatible auxiliary tree at a random open address of the derivation tree;
*deletion* removes a random node.  Each move is adopted only if it improves
fitness (stochastic hill climbing).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.gp.config import GMRConfig
from repro.gp.individual import Individual
from repro.tag.grammar import TagGrammar

#: Callback evaluating an individual, returning its fitness (lower better).
FitnessFn = Callable[[Individual], float]

#: Callback evaluating a cohort in order, one fitness per member (e.g.
#: :meth:`repro.gp.fitness.GMRFitnessEvaluator.evaluate_batch`).
BatchFitnessFn = Callable[[list[Individual]], list[float]]


def insertion(
    individual: Individual,
    grammar: TagGrammar,
    config: GMRConfig,
    rng: random.Random,
) -> Individual | None:
    """Adjoin a random compatible beta-tree at a random open address.

    Returns the modified copy, or None when the individual is already at
    MAXSIZE or has no open adjoining address.
    """
    from repro.gp.init import attach  # local import: cycle

    if individual.size >= config.max_size:
        return None
    child = individual.copy()
    sites = child.derivation.open_sites(grammar)
    if not sites:
        return None
    node, address = rng.choice(sites)
    symbol = node.tree.node_at(address).symbol
    candidates = grammar.betas_for(symbol)
    if not candidates:
        return None
    attach(grammar, node, address, rng.choice(candidates), rng)
    child.invalidate()
    return child


def deletion(
    individual: Individual,
    config: GMRConfig,
    rng: random.Random,
) -> Individual | None:
    """Remove a random leaf node from the derivation tree.

    Removing a leaf (a beta with no further adjunctions) always leaves a
    valid derivation.  Returns None when deletion would shrink the
    individual below MINSIZE or only the root remains.
    """
    if individual.size <= config.min_size:
        return None
    child = individual.copy()
    leaves = [
        (parent, address)
        for parent, address, node in child.derivation.walk_with_parents()
        if parent is not None and not node.children
    ]
    if not leaves:
        return None
    parent, address = rng.choice(leaves)
    del parent.children[address]
    child.invalidate()
    return child


def hill_climb(
    individual: Individual,
    grammar: TagGrammar,
    config: GMRConfig,
    fitness_fn: FitnessFn,
    rng: random.Random,
    steps: int | None = None,
    knowledge=None,
    sigma_scale: float = 1.0,
    batch_fitness_fn: BatchFitnessFn | None = None,
) -> Individual:
    """Stochastic hill climbing on offspring (Section III-D).

    Applies ``steps`` moves (default ``config.local_search_steps``),
    adopting a move only when it strictly improves fitness.  The paper's
    moves are *insertion* and *deletion* with equal probability; when
    ``knowledge`` is provided and ``config.local_search_gaussian`` is on,
    a small-step Gaussian parameter tweak is mixed in as a third move --
    a memetic extension that co-adapts the constants of freshly revised
    structure (without it, a promising revision is usually selected away
    before Gaussian mutation can reach it).

    With ``batch_fitness_fn`` provided and ``config.gaussian_proposals``
    above 1, the Gaussian move proposes that many parameter vectors and
    keeps the best, scored as one cohort through ``batch_fitness_fn``
    (they all share the current structure); the winning candidate
    still only replaces ``current`` if it strictly improves on it.
    """
    from repro.gp.operators import (  # local import: cycle
        gaussian_mutation,
        gaussian_mutation_best_of,
    )

    if steps is None:
        steps = config.local_search_steps
    use_gaussian = config.local_search_gaussian and knowledge is not None
    propose_many = (
        batch_fitness_fn is not None and config.gaussian_proposals > 1
    )
    current = individual
    if current.fitness is None:
        current.fitness = fitness_fn(current)
    for __ in range(steps):
        roll = rng.random()
        if use_gaussian and roll < 1.0 / 3.0:
            if propose_many:
                candidate = gaussian_mutation_best_of(
                    current, knowledge, config, rng, sigma_scale,
                    batch_fitness_fn,
                )
            else:
                candidate = gaussian_mutation(
                    current, knowledge, config, rng, sigma_scale=sigma_scale
                )
        elif roll < (2.0 / 3.0 if use_gaussian else 0.5):
            candidate = insertion(current, grammar, config, rng)
        else:
            candidate = deletion(current, config, rng)
        if candidate is None:
            continue
        if candidate.fitness is None:
            candidate.fitness = fitness_fn(candidate)
        if candidate.fitness < current.fitness:
            current = candidate
    return current
