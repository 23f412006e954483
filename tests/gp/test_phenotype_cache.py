"""The evaluator's per-shape phenotype memo (repro.gp.phenotype).

A differential property test holds the cache to the uncached reference
:meth:`Individual.phenotype` over random derivations of every registered
domain pushed through chains of genetic operators; hygiene tests pin the
memo's bound, what a hit carries, and that it never reaches a pickle or
changes a run.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gp.phenotype as phenotype_module
from repro.domains import available_domains
from repro.expr.ast import Const
from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.individual import Individual
from repro.gp.init import attach, random_individual
from repro.gp.phenotype import PhenotypeCache, shape_key
from repro.tag.derivation import DerivationNode, DerivationTree
from repro.tag.derive import DeriveError
from repro.tag.symbols import nonterminal
from repro.tag.trees import Lexeme
from tests.oracle import CHAIN_CONFIG, OPERATORS, apply, bits, domain_setup


def assert_same_phenotype(cached, reference) -> bool:
    """Compare a memo answer with the reference; return whether it hit."""
    model, params, hit = cached
    ref_model, ref_params = reference
    assert model.equations == ref_model.equations
    assert model.param_order == ref_model.param_order
    assert model.var_order == ref_model.var_order
    assert model.structure_key() == ref_model.structure_key()
    assert bits(params) == bits(ref_params)
    return hit


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        domain=st.sampled_from(sorted(available_domains())),
        seed=st.integers(0, 10_000),
        chain=st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=8),
    )
    def test_cached_equals_reference(self, domain, seed, chain):
        spec, knowledge, grammar = domain_setup(domain)
        names, order = spec.state_names, spec.var_order
        rng = random.Random(seed)
        cache = PhenotypeCache()
        current = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        other = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        assert_same_phenotype(
            cache.phenotype(current, names, order),
            current.phenotype(names, order),
        )
        for op in chain:
            current = apply(op, current, other, knowledge, grammar, rng)
            hit = assert_same_phenotype(
                cache.phenotype(current, names, order),
                current.phenotype(names, order),
            )
            if op == "gaussian":
                # Constant moves keep the shape: served from the memo.
                assert hit


def slot_node(individual):
    """A derivation node with a filled substitution slot, and the slot."""
    for node in individual.derivation.walk():
        slots = node.tree.substitution_addresses()
        if slots:
            return node, slots[0]
    raise AssertionError("derivation has no substitution slot")


class TestCorrectness:
    def test_invalid_derivation_raises_and_is_never_cached(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        names, order = toy_task.state_names, toy_task.var_order
        rng = random.Random(1)
        valid = random_individual(toy_grammar, toy_knowledge, CHAIN_CONFIG, rng)
        cache = PhenotypeCache()
        cache.phenotype(valid, names, order)

        unfilled = valid.copy()
        node, slot = slot_node(unfilled)
        del node.lexemes[slot]
        mislabelled = valid.copy()
        node, slot = slot_node(mislabelled)
        node.lexemes[slot] = Lexeme(
            nonterminal("Bogus"), node.lexemes[slot].payload
        )
        for broken in (unfilled, mislabelled):
            for __ in range(2):
                with pytest.raises(DeriveError):
                    broken.phenotype(names, order)
                with pytest.raises(DeriveError):
                    cache.phenotype(broken, names, order)
        assert len(cache) == 1

    def test_child_insertion_order_is_part_of_the_shape(self):
        """Twin sibling subtrees re-inserted in the other order derive
        the same model, but walk their constants in the other order."""
        spec, knowledge, grammar = domain_setup("lotka_volterra")
        names, order = spec.state_names, spec.var_order
        rng = random.Random(3)
        root = DerivationNode(tree=grammar.start_alphas()[0])
        root.fill_lexemes(grammar, rng)
        node = root
        for name in ("conn:ExtPrey:+:R", "ext:ExtPrey:+:R"):
            beta = grammar.betas[name]
            site = next(
                address
                for address in node.open_adjunction_addresses(grammar)
                if node.tree.node_at(address).symbol == beta.root.symbol
            )
            node = attach(grammar, node, site, beta, rng)
        twin = grammar.betas["ext:ExtPrey:*:R"]
        sites = node.open_adjunction_addresses(grammar)
        assert len(sites) == 2
        for site in sites:
            attach(grammar, node, site, twin, rng)
        forward = Individual(
            derivation=DerivationTree(root),
            params=knowledge.initial_parameters(),
        )
        backward = forward.copy()
        host = list(backward.derivation.walk())[2]
        host.children = dict(reversed(host.children.items()))
        assert forward.derivation.rconsts() != backward.derivation.rconsts()

        cache = PhenotypeCache()
        for individual in (forward, backward):
            hit = assert_same_phenotype(
                cache.phenotype(individual, names, order),
                individual.phenotype(names, order),
            )
            assert not hit

    def test_signed_zero_constants_get_distinct_keys(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        names, order = toy_task.state_names, toy_task.var_order
        rng = random.Random(2)
        base = random_individual(toy_grammar, toy_knowledge, CHAIN_CONFIG, rng)
        variants = []
        for zero in (0.0, -0.0):
            variant = base.copy()
            node, slot = slot_node(variant)
            node.lexemes[slot] = Lexeme(node.lexemes[slot].symbol, ("const", zero))
            variants.append(variant)
        positive, negative = variants
        assert (
            shape_key(positive, names, order)[0]
            != shape_key(negative, names, order)[0]
        )
        cache = PhenotypeCache()
        cache.phenotype(positive, names, order)
        model, __, hit = cache.phenotype(negative, names, order)
        assert not hit
        signs = {
            math.copysign(1.0, expr.value)
            for equation in model.equations.values()
            for expr in equation.walk()
            if isinstance(expr, Const) and expr.value == 0.0
        }
        assert -1.0 in signs


def make_evaluator(toy_task) -> GMRFitnessEvaluator:
    return GMRFitnessEvaluator(
        task=toy_task,
        config=GMRConfig(population_size=4, max_generations=1, max_size=10),
    )


def population(toy_grammar, toy_knowledge, size, seed=0):
    rng = random.Random(seed)
    return [
        random_individual(toy_grammar, toy_knowledge, CHAIN_CONFIG, rng)
        for __ in range(size)
    ]


class TestHygiene:
    def test_entry_count_stays_bounded(
        self, toy_grammar, toy_knowledge, toy_task, monkeypatch
    ):
        names, order = toy_task.state_names, toy_task.var_order
        monkeypatch.setattr(phenotype_module, "PHENOTYPE_CACHE_SIZE", 4)
        cache = PhenotypeCache()
        for individual in population(toy_grammar, toy_knowledge, 30):
            cache.phenotype(individual, names, order)
            assert len(cache) <= 4
        assert len(cache) == 4

    def test_hit_carries_no_compiled_kernels(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        evaluator = make_evaluator(toy_task)
        individual = population(toy_grammar, toy_knowledge, 1)[0]
        evaluator.evaluate(individual)
        evaluator.evaluate_batch([individual.copy(), individual.copy()])
        assert evaluator.stats.phenotype_hits >= 1
        model, __, hit = evaluator._phenotypes.phenotype(
            individual.copy(), toy_task.state_names, toy_task.var_order
        )
        assert hit
        assert model._compiled is None
        assert "_structure_key" in model.__dict__

    def test_pickled_evaluator_carries_no_cache(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        evaluator = make_evaluator(toy_task)
        for individual in population(toy_grammar, toy_knowledge, 5):
            evaluator.evaluate(individual)
        assert len(evaluator._phenotypes) > 0
        assert len(evaluator.__getstate__()["_phenotypes"]) == 0
        restored = pickle.loads(pickle.dumps(evaluator))
        assert len(restored._phenotypes) == 0
        assert len(evaluator._phenotypes) > 0

    def test_reset_empties_the_cache(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        evaluator = make_evaluator(toy_task)
        for individual in population(toy_grammar, toy_knowledge, 5):
            evaluator.evaluate(individual)
        assert len(evaluator._phenotypes) > 0
        evaluator.reset()
        assert len(evaluator._phenotypes) == 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_run_matches_uncached_run(
        self, toy_knowledge, toy_task, small_config, monkeypatch, batched
    ):
        config = small_config
        if batched:
            config = dataclasses.replace(
                config, eval_batch_size=10, gaussian_proposals=4
            )

        def run():
            engine = GMREngine(toy_knowledge, toy_task, config)
            result = engine.run(seed=11)
            return result.history, result.best_fitness, result.stats

        def uncached(self, individual, state_names, var_order):
            return (*individual.phenotype(state_names, var_order), False)

        cached_history, cached_best, cached_stats = run()
        monkeypatch.setattr(PhenotypeCache, "phenotype", uncached)
        history, best, stats = run()
        assert cached_stats.phenotype_hits > 0
        assert stats.phenotype_hits == 0
        assert (
            cached_stats.phenotype_hits + cached_stats.phenotype_misses
            == stats.phenotype_misses
        )
        assert cached_history == history
        assert bits([cached_best]) == bits([best])
        for name in (
            "evaluations",
            "cache_hits",
            "short_circuits",
            "divergences",
            "steps_evaluated",
        ):
            assert getattr(cached_stats, name) == getattr(stats, name)
