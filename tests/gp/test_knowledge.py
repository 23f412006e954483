"""Prior-knowledge validation and grammar compilation."""

import random

import pytest

from repro.expr import ast
from repro.expr.ast import Ext, Param, State
from repro.gp.config import GMRConfig
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.init import random_individual
from repro.gp.knowledge import (
    ExtensionSpec,
    KnowledgeError,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
)
from repro.lru import LRU
from repro.tag.symbols import connector_symbol, extender_symbol


def seed():
    return {"B": Ext("Ext1", ast.mul(State("B"), Param("mu")))}


def priors():
    return {"mu": ParameterPrior("mu", 1.0, 0.0, 2.0)}


class TestParameterPrior:
    def test_mean_must_lie_in_bounds(self):
        with pytest.raises(KnowledgeError):
            ParameterPrior("p", 5.0, 0.0, 1.0)

    def test_clip(self):
        prior = ParameterPrior("p", 0.5, 0.0, 1.0)
        assert prior.clip(-1.0) == 0.0
        assert prior.clip(2.0) == 1.0
        assert prior.clip(0.7) == 0.7


class TestPriorKnowledgeValidation:
    def test_spec_without_marker_rejected(self):
        with pytest.raises(KnowledgeError, match="no matching Ext"):
            PriorKnowledge(
                seed_equations=seed(),
                priors=priors(),
                extensions=[
                    ExtensionSpec("Ext1", ("Va",)),
                    ExtensionSpec("Ext9", ("Vb",)),
                ],
            )

    def test_marker_without_spec_rejected(self):
        with pytest.raises(KnowledgeError, match="without revision specs"):
            PriorKnowledge(
                seed_equations=seed(), priors=priors(), extensions=[]
            )

    def test_unbound_seed_parameter_rejected(self):
        with pytest.raises(KnowledgeError, match="without priors"):
            PriorKnowledge(
                seed_equations=seed(),
                priors={},
                extensions=[ExtensionSpec("Ext1", ("Va",))],
            )

    def test_duplicate_extension_names_rejected(self):
        with pytest.raises(KnowledgeError, match="duplicate"):
            PriorKnowledge(
                seed_equations=seed(),
                priors=priors(),
                extensions=[
                    ExtensionSpec("Ext1", ("Va",)),
                    ExtensionSpec("Ext1", ("Vb",)),
                ],
            )

    def test_initial_parameters_are_prior_means(self):
        knowledge = PriorKnowledge(
            seed_equations=seed(),
            priors=priors(),
            extensions=[ExtensionSpec("Ext1", ("Va",))],
        )
        assert knowledge.initial_parameters() == {"mu": 1.0}


class TestBuildGrammar:
    def test_beta_counts_match_spec(self):
        knowledge = PriorKnowledge(
            seed_equations=seed(),
            priors=priors(),
            extensions=[
                ExtensionSpec(
                    "Ext1",
                    ("Va", "Vb"),
                    connector_ops=("+",),
                    extender_ops=("+", "*"),
                    unary_extender_ops=("log",),
                )
            ],
        )
        grammar = build_grammar(knowledge)
        # connectors: 1 op x 3 operands (Va, Vb, R); extenders: 2 ops x 3
        # operands; unary extenders: 1.
        assert len(grammar.betas) == 3 + 6 + 1

    def test_connector_and_extender_symbols_are_disjoint(self):
        knowledge = PriorKnowledge(
            seed_equations=seed(),
            priors=priors(),
            extensions=[ExtensionSpec("Ext1", ("Va",))],
        )
        grammar = build_grammar(knowledge)
        conn = connector_symbol("Ext1")
        ext = extender_symbol("Ext1")
        for beta in grammar.betas.values():
            assert beta.root.symbol in (conn, ext)
        assert grammar.betas_for(conn)
        assert grammar.betas_for(ext)
        assert not set(grammar.betas_for(conn)) & set(grammar.betas_for(ext))

    def test_random_operand_excluded_when_disabled(self):
        knowledge = PriorKnowledge(
            seed_equations=seed(),
            priors=priors(),
            extensions=[
                ExtensionSpec("Ext1", ("Va",), include_random=False)
            ],
        )
        grammar = build_grammar(knowledge)
        assert not any(":R" in name for name in grammar.betas)


class TestTreeCache:
    def test_hit_and_miss_accounting(self):
        cache = LRU(8)
        key = ("structure", (1.0, 2.0))
        assert cache.get(key) is None
        cache.put(key, 3.0)
        assert cache.get(key) == 3.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_param_keys_are_exact(self, toy_task, toy_grammar, toy_knowledge):
        # 0.1 + 0.2 and 0.3 differ only in the 17th significant digit;
        # the evaluator's tree cache keys them apart.
        config = GMRConfig(
            population_size=4, max_generations=1, max_size=8, es_threshold=None
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        individual = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(0)
        )
        model, __ = individual.phenotype(toy_task.state_names, toy_task.var_order)
        name = next(n for n in model.param_order if n in individual.params)
        for value in (0.1 + 0.2, 0.3, 0.1 + 0.2):
            variant = individual.copy()
            variant.params[name] = value
            evaluator.evaluate(variant)
        stats = evaluator.cache.stats
        assert (stats.hits, stats.misses) == (1, 2)

    def test_eviction_respects_capacity(self):
        cache = LRU(2)
        for index in range(3):
            cache.put(("s", (float(index),)), float(index))
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_clear(self):
        cache = LRU(8)
        cache.put(("s", (1.0,)), 1.0)
        cache.clear()
        assert len(cache) == 0
