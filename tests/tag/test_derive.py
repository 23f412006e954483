"""Adjoining, substitution, derivation -> derived tree -> expression."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import available_domains
from repro.expr import ast
from repro.expr.ast import Const, Ext, Param, State, Var
from repro.expr.evaluate import evaluate
from repro.gp.init import random_individual
from repro.gp.knowledge import (
    ExtensionSpec,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
)
from repro.tag.derivation import DerivationNode, DerivationTree
from repro.tag.derive import (
    DeriveError,
    adjoin,
    derive,
    lift,
    lift_model,
    substitute_node,
    to_expressions,
    translate_equation,
    validate,
)
from repro.tag.symbols import MODEL, connector_symbol, extender_symbol, terminal
from repro.tag.trees import BetaTree, Lexeme, TreeNode
from tests.oracle import CHAIN_CONFIG, OPERATORS, apply, domain_setup


def river_like_knowledge() -> PriorKnowledge:
    seed = {
        "B": Ext(
            "Ext1",
            ast.mul(State("B"), ast.sub(Param("CUA"), Param("CBRA"))),
        )
    }
    return PriorKnowledge(
        seed_equations=seed,
        priors={
            "CUA": ParameterPrior("CUA", 1.0, 0.0, 2.0),
            "CBRA": ParameterPrior("CBRA", 0.1, 0.0, 0.5),
        },
        extensions=[ExtensionSpec("Ext1", ("Vtmp",))],
    )


class TestLift:
    def test_lift_round_trips_expression(self):
        expr = ast.mul(State("B"), ast.add(Param("p"), Var("v")))
        tree = lift(expr)
        expressions, rvalues = to_expressions(tree)
        assert expressions == [expr]
        assert rvalues == {}

    def test_lift_converts_ext_markers_to_connector_nodes(self):
        expr = Ext("Ext1", Const(1.0))
        tree = lift(expr)
        assert tree.symbol == connector_symbol("Ext1")

    def test_lift_model_combines_under_model_root(self):
        tree = lift_model({"a": Const(1.0), "b": Const(2.0)})
        assert tree.symbol == MODEL
        expressions, __ = to_expressions(tree)
        assert expressions == [Const(1.0), Const(2.0)]


class TestComposition:
    def test_adjoin_inserts_auxiliary_structure(self):
        target = lift(Ext("Ext1", Const(3.0)))
        from repro.gp.knowledge import connector_beta
        from repro.tag.symbols import VALUE
        from repro.tag.trees import Lexeme, RConst

        beta = connector_beta("Ext1", "+", "Vtmp")
        # Fill the operand's scale slot (variables enter as var * R).
        slot = beta.substitution_addresses()[0]
        planted = substitute_node(
            beta.root,
            slot,
            Lexeme(VALUE, ("rconst", RConst(2.0))).instantiate(),
        )
        derived = adjoin(target, (), planted)
        expressions, rvalues = to_expressions(derived)
        assert rvalues == {"_R0": 2.0}
        value = evaluate(
            expressions[0], {"_R0": 2.0}, variables={"Vtmp": 4.0}
        )
        assert value == 3.0 + 4.0 * 2.0

    def test_adjoin_label_mismatch_rejected(self):
        target = lift(Ext("Ext1", Const(3.0)))
        from repro.gp.knowledge import connector_beta

        beta = connector_beta("Ext2", "+", "Vtmp")
        with pytest.raises(DeriveError):
            adjoin(target, (), beta.root)

    def test_substitute_requires_slot(self):
        target = lift(Const(1.0))
        leaf = TreeNode(extender_symbol("Ext1"))
        with pytest.raises(DeriveError):
            substitute_node(target, (), leaf)


class TestDerivation:
    def test_seed_only_derivation(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        root = DerivationNode(tree=grammar.alphas["seed"])
        derived = derive(DerivationTree(root))
        expressions, rvalues = to_expressions(derived)
        assert len(expressions) == 1
        assert rvalues == {}
        value = evaluate(
            expressions[0], {"CUA": 1.0, "CBRA": 0.25}, {}, {"B": 4.0}
        )
        assert value == pytest.approx(3.0)

    def test_derivation_with_adjunction_and_lexeme(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        rng = random.Random(0)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:R"]
        sites = root.open_adjunction_addresses(grammar)
        assert sites, "seed alpha must expose the Ext1 adjunction site"
        child = DerivationNode(tree=beta)
        child.fill_lexemes(grammar, rng)
        root.children[sites[0]] = child
        derivation = DerivationTree(root)
        derivation.validate(grammar)
        expressions, rvalues = to_expressions(derive(derivation))
        assert len(rvalues) == 1
        name, value = next(iter(rvalues.items()))
        assert name == "_R0"
        result = evaluate(
            expressions[0],
            {"CUA": 1.0, "CBRA": 0.25, name: value},
            {},
            {"B": 4.0},
        )
        assert result == pytest.approx(3.0 + value)

    def test_stacked_adjunction_at_beta_root(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        rng = random.Random(1)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:Vtmp"]
        site = root.open_adjunction_addresses(grammar)[0]
        child = DerivationNode(tree=beta)
        child.fill_lexemes(grammar, rng)
        root.children[site] = child
        grandchild = DerivationNode(tree=beta)
        grandchild.fill_lexemes(grammar, rng)
        child.children[()] = grandchild  # stack at the beta's own root
        derivation = DerivationTree(root)
        derivation.validate(grammar)
        expressions, rvalues = to_expressions(derive(derivation))
        value = evaluate(
            expressions[0],
            {"CUA": 1.0, "CBRA": 0.25, **rvalues},
            {"Vtmp": 10.0},
            {"B": 4.0},
        )
        scales = list(rvalues.values())
        assert value == pytest.approx(3.0 + 10.0 * scales[0] + 10.0 * scales[1])

    def test_unfilled_slot_fails_derivation(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:R"]
        site = root.open_adjunction_addresses(grammar)[0]
        root.children[site] = DerivationNode(tree=beta)  # lexemes unfilled
        with pytest.raises(DeriveError):
            derive(DerivationTree(root))

    def test_connector_cannot_adjoin_at_extender_site(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        connector = grammar.betas["conn:Ext1:+:Vtmp"]
        extender_sites = connector.adjunction_addresses(
            frozenset({extender_symbol("Ext1")})
        )
        assert extender_sites  # the operand side is extender-extensible
        connector_beta_tree = grammar.betas["conn:Ext1:+:R"]
        site_symbol = connector.node_at(extender_sites[0]).symbol
        assert not grammar.can_adjoin(connector_beta_tree, site_symbol)


def reference(derivation):
    """``to_expressions(derive(...))`` and the constants it met."""
    met = []
    expressions, rvalues = to_expressions(derive(derivation), met)
    return expressions, rvalues, met


def translate(derivation):
    """What the phenotype memo does on a miss: validate, then translate
    equation by equation straight from the derivation."""
    validate(derivation)
    root = derivation.root
    expressions, met = [], []
    for index in range(len(root.tree.root.children)):
        own = []
        expressions.append(translate_equation(root, index, len(met), own))
        met.extend(own)
    return expressions, {f"_R{k}": r.value for k, r in enumerate(met)}, met


def assert_translates_like_reference(derivation):
    expressions, rvalues, met = reference(derivation)
    got_expressions, got_rvalues, got = translate(derivation)
    assert (got_expressions, got_rvalues) == (expressions, rvalues)
    assert [id(r) for r in got] == [id(r) for r in met]


def seeded(grammar, adjoin_at_root=False):
    """A seed derivation with one ``R`` connector (and one stacked on
    the connector's own root)."""
    rng = random.Random(0)
    root = DerivationNode(tree=grammar.alphas["seed"])
    child = DerivationNode(tree=grammar.betas["conn:Ext1:+:R"])
    child.fill_lexemes(grammar, rng)
    root.children[root.open_adjunction_addresses(grammar)[0]] = child
    if adjoin_at_root:
        stacked = DerivationNode(tree=grammar.betas["conn:Ext1:+:Vtmp"])
        stacked.fill_lexemes(grammar, rng)
        child.children[()] = stacked
    return root, child


class TestTranslateEquation:
    @settings(max_examples=40, deadline=None)
    @given(
        domain=st.sampled_from(sorted(available_domains())),
        seed=st.integers(0, 10_000),
        chain=st.lists(st.sampled_from(OPERATORS), max_size=8),
    )
    def test_matches_derived_tree_translation(self, domain, seed, chain):
        spec, knowledge, grammar = domain_setup(domain)
        rng = random.Random(seed)
        current = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        other = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        assert_translates_like_reference(current.derivation)
        for op in chain:
            current = apply(op, current, other, knowledge, grammar, rng)
            assert_translates_like_reference(current.derivation)

    @pytest.mark.parametrize("adjoin_at_root", [False, True])
    def test_stacked_adjunctions(self, adjoin_at_root):
        grammar = build_grammar(river_like_knowledge())
        root, __ = seeded(grammar, adjoin_at_root)
        assert_translates_like_reference(DerivationTree(root))

    def test_same_faults_as_the_derived_tree(self):
        grammar = build_grammar(river_like_knowledge())
        symbol = connector_symbol("Ext1")
        foot = TreeNode(symbol, is_foot=True)
        variable = TreeNode(terminal("var:Vtmp"), payload=("var", "Vtmp"))
        shapes = {
            "no operator": (variable, foot),
            "four children": (variable, variable, variable, foot),
        }
        broken = []
        for name, children in shapes.items():
            root, child = seeded(grammar)
            child.children[()] = DerivationNode(
                tree=BetaTree(name, TreeNode(symbol, children))
            )
            broken.append(root)
        for payload in (("op", "+"), ("bogus", 1.0)):
            root, child = seeded(grammar)
            (address,) = child.lexemes
            child.lexemes[address] = Lexeme(child.lexemes[address].symbol, payload)
            broken.append(root)
        root, child = seeded(grammar)
        child.lexemes.clear()
        broken.append(root)
        for root in broken:
            derivation = DerivationTree(root)
            with pytest.raises(DeriveError) as want:
                to_expressions(derive(derivation))
            with pytest.raises(DeriveError) as got:
                translate(derivation)
            assert str(got.value) == str(want.value)


class TestNoReferenceCycles:
    """Deriving and translating leave nothing for the cyclic collector
    (recursive nested closures each made a cycle per call)."""

    @pytest.mark.parametrize(
        "translate",
        [
            lambda d: to_expressions(derive(d)),
            translate,
            lambda d: list(d.walk_with_parents()),
        ],
        ids=["derive", "translate_equation", "walk_with_parents"],
    )
    def test_river_individual(self, translate):
        spec, knowledge, grammar = domain_setup("river")
        rng = random.Random(5)
        individual = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
        assert individual.size > 1
        gc.collect()
        gc.disable()
        try:
            translate(individual.derivation)
            assert gc.collect() == 0
        finally:
            gc.enable()
