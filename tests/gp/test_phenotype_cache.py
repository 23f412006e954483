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
from repro.tag.derive import DeriveError, translate_equation
from repro.tag.symbols import nonterminal, terminal
from repro.tag.trees import BetaTree, Lexeme, TreeNode
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


#: Lotka-Volterra's root sites: equation 0 (Prey) and equation 1 (Pred).
PREY_SITE, PRED_SITE = (0,), (1, 2, 2)


def lv_individual(prey_const: bool, pred_beta=None, seed: int = 4):
    """A Lotka-Volterra individual: equation 1 carries one random
    constant (or ``pred_beta``); equation 0 one more when
    ``prey_const``.  Constants get distinct values."""
    spec, knowledge, grammar = domain_setup("lotka_volterra")
    rng = random.Random(seed)
    root = DerivationNode(tree=grammar.start_alphas()[0])
    root.fill_lexemes(grammar, rng)
    pred_beta = pred_beta or grammar.betas["conn:ExtMort:*:R"]
    pred = attach(grammar, root, PRED_SITE, pred_beta, rng)
    if prey_const:
        prey_beta = grammar.betas["conn:ExtPrey:+:R"]
        prey = attach(grammar, root, PREY_SITE, prey_beta, rng)
        for lexeme in prey.lexemes.values():
            if lexeme.payload[0] == "rconst":
                lexeme.payload[1].value = 3.25
    for lexeme in pred.lexemes.values():
        if lexeme.payload[0] == "rconst":
            lexeme.payload[1].value = 7.5
    individual = Individual(
        derivation=DerivationTree(root), params=knowledge.initial_parameters()
    )
    return individual, spec.state_names, spec.var_order


def untranslatable_beta(symbol) -> BetaTree:
    """A beta that passes validation but has no expression: a variable
    and the foot side by side, with no operator between them."""
    variable = TreeNode(terminal("var:Vtmp"), payload=("var", "Vtmp"))
    return BetaTree(
        "bogus", TreeNode(symbol, (variable, TreeNode(symbol, is_foot=True)))
    )


class TestFragments:
    @pytest.mark.parametrize("change", ["gains", "loses"])
    def test_equation_zero_changes_its_constants(self, change):
        """Equation 1 is unchanged while equation 0 gains (or loses) a
        random constant, so equation 1's constant is renamed."""
        first, second = (False, True) if change == "gains" else (True, False)
        cache = PhenotypeCache()
        for prey_const in (first, second):
            individual, names, order = lv_individual(prey_const)
            model, params, hit = cache.phenotype(individual, names, order)
            assert not assert_same_phenotype(
                (model, params, hit), individual.phenotype(names, order)
            )
        values = dict(zip(model.param_order, params))
        if second:
            assert (values["_R0"], values["_R1"]) == (3.25, 7.5)
            assert "_R1" in model.structure_key().split(";")[1]
        else:
            assert values["_R0"] == 7.5
            assert "_R1" not in values

    def test_unpickled_copy_served_by_a_warm_cache(self):
        """An unpickled individual's elementary trees are copies with
        other ids; the warm cache still serves the reference."""
        cache = PhenotypeCache()
        for prey_const in (False, True):
            individual, names, order = lv_individual(prey_const)
            cache.phenotype(individual, names, order)
            copy = pickle.loads(pickle.dumps(individual))
            for __ in range(2):
                for each in (copy, individual):
                    assert_same_phenotype(
                        cache.phenotype(each, names, order),
                        each.phenotype(names, order),
                    )

    def test_derive_error_leaves_no_fragment(self):
        cache = PhenotypeCache()
        individual, names, order = lv_individual(False)
        cache.phenotype(individual, names, order)
        fragments = dict(cache._fragments._entries)
        symbol = individual.derivation.root.tree.node_at(PRED_SITE).symbol
        # Equation 0 is new and translates; equation 1 does not.
        broken, __, __ = lv_individual(True, untranslatable_beta(symbol))
        for __ in range(2):
            with pytest.raises(DeriveError):
                broken.phenotype(names, order)
            with pytest.raises(DeriveError):
                cache.phenotype(broken, names, order)
        assert cache._fragments._entries == fragments
        assert len(cache) == 1

    def test_table_stays_bounded(
        self, toy_grammar, toy_knowledge, toy_task, monkeypatch
    ):
        names, order = toy_task.state_names, toy_task.var_order
        monkeypatch.setattr(phenotype_module, "FRAGMENT_TABLE_SIZE", 3)
        cache = PhenotypeCache()
        for individual in population(toy_grammar, toy_knowledge, 30):
            cache.phenotype(individual, names, order)
            assert len(cache._fragments) <= 3
        assert len(cache._fragments) == 3

    def test_reset_and_pickle_drop_the_table(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        evaluator = make_evaluator(toy_task)
        for individual in population(toy_grammar, toy_knowledge, 5):
            evaluator.evaluate(individual)
        assert len(evaluator._phenotypes._fragments) > 0
        restored = pickle.loads(pickle.dumps(evaluator))
        assert len(restored._phenotypes._fragments) == 0
        evaluator.reset()
        assert len(evaluator._phenotypes._fragments) == 0

    @pytest.mark.parametrize("domain", sorted(available_domains()))
    def test_subtree_mutations_reuse_fragments(self, domain, monkeypatch):
        """Non-vacuity: along a chain of single-subtree mutations, whole
        models missed by the memo are composed from fragments without
        translating every equation."""
        spec, knowledge, grammar = domain_setup(domain)
        names, order = spec.state_names, spec.var_order
        translated = []

        def counting(root, index, offset, rconsts):
            translated.append(index)
            return translate_equation(root, index, offset, rconsts)

        monkeypatch.setattr(phenotype_module, "translate_equation", counting)
        rng = random.Random(7)
        cache = PhenotypeCache()
        current = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        misses = 0
        for __ in range(30):
            hit = assert_same_phenotype(
                cache.phenotype(current, names, order),
                current.phenotype(names, order),
            )
            misses += not hit
            current = apply("subtree", current, current, knowledge, grammar, rng)
        assert misses > 1
        assert len(translated) < misses * len(names)
