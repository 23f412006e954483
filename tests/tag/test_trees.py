"""Elementary tree validation, addressing, and structural edits."""

import pytest

from repro.tag.symbols import EXP, nonterminal, terminal
from repro.tag.trees import (
    AlphaTree,
    BetaTree,
    Lexeme,
    RConst,
    TreeError,
    TreeNode,
)

T_A = terminal("a")
NT_X = nonterminal("X")


def leaf(payload=None) -> TreeNode:
    return TreeNode(T_A, payload=payload)


class TestTreeNode:
    def test_terminal_cannot_have_children(self):
        with pytest.raises(TreeError):
            TreeNode(T_A, (leaf(),))

    def test_foot_must_be_frontier(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, (leaf(),), is_foot=True)

    def test_subst_must_be_frontier(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, (leaf(),), is_subst=True)

    def test_foot_and_subst_mutually_exclusive(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, is_foot=True, is_subst=True)

    def test_markers_require_nonterminals(self):
        with pytest.raises(TreeError):
            TreeNode(T_A, is_foot=True)

    def test_walk_addresses(self):
        tree = TreeNode(NT_X, (leaf(), TreeNode(NT_X, (leaf(),))))
        addresses = [address for address, __ in tree.walk()]
        assert addresses == [(), (0,), (1,), (1, 0)]

    def test_node_at(self):
        inner = TreeNode(NT_X, (leaf(),))
        tree = TreeNode(NT_X, (leaf(), inner))
        assert tree.node_at((1,)) is inner
        assert tree.node_at(()) is tree

    def test_node_at_invalid_address(self):
        with pytest.raises(TreeError):
            leaf().node_at((0,))

    def test_replace_at_returns_new_tree(self):
        tree = TreeNode(NT_X, (leaf(), leaf()))
        replacement = TreeNode(NT_X, is_subst=True)
        replaced = tree.replace_at((1,), replacement)
        assert replaced.node_at((1,)).is_subst
        assert not tree.node_at((1,)).is_subst  # original untouched

    def test_size(self):
        tree = TreeNode(NT_X, (leaf(), TreeNode(NT_X, (leaf(),))))
        assert tree.size == 4


class TestElementaryTrees:
    def test_alpha_rejects_foot(self):
        root = TreeNode(NT_X, (TreeNode(NT_X, is_foot=True),))
        with pytest.raises(TreeError):
            AlphaTree("bad", root)

    def test_beta_requires_exactly_one_foot(self):
        with pytest.raises(TreeError):
            BetaTree("none", TreeNode(NT_X, (leaf(),)))
        two_feet = TreeNode(
            NT_X,
            (TreeNode(NT_X, is_foot=True), TreeNode(NT_X, is_foot=True)),
        )
        with pytest.raises(TreeError):
            BetaTree("two", two_feet)

    def test_beta_foot_label_must_match_root(self):
        other = nonterminal("Y")
        root = TreeNode(NT_X, (TreeNode(other, is_foot=True),))
        with pytest.raises(TreeError):
            BetaTree("mismatch", root)

    def test_beta_foot_address(self):
        root = TreeNode(NT_X, (leaf(), TreeNode(NT_X, is_foot=True)))
        beta = BetaTree("ok", root)
        assert beta.foot_address == (1,)

    def test_substitution_addresses(self):
        root = TreeNode(
            NT_X, (TreeNode(NT_X, is_subst=True), leaf())
        )
        alpha = AlphaTree("a", root)
        assert alpha.substitution_addresses() == ((0,),)

    def test_adjunction_addresses_exclude_markers(self):
        root = TreeNode(
            NT_X,
            (
                TreeNode(NT_X, is_subst=True),
                TreeNode(NT_X, (leaf(),)),
            ),
        )
        alpha = AlphaTree("a", root)
        sites = alpha.adjunction_addresses(frozenset({NT_X}))
        assert () in sites
        assert (1,) in sites
        assert (0,) not in sites  # substitution slot

    def test_address_tables_are_memoised_per_adjoinable_set(self):
        root = TreeNode(
            NT_X,
            (
                TreeNode(NT_X, is_subst=True),
                TreeNode(nonterminal("Y"), (leaf(),)),
                TreeNode(NT_X, is_foot=True),
            ),
        )
        beta = BetaTree("b", root)
        x_only = beta.adjunction_addresses(frozenset({NT_X}))
        assert beta.adjunction_addresses(frozenset({NT_X})) is x_only
        assert beta.adjunction_addresses(
            frozenset({NT_X, nonterminal("Y")})
        ) == ((), (1,))
        assert beta.substitution_addresses() is beta.substitution_addresses()
        assert beta.foot_address == (2,)

    def test_memos_leave_equality_hash_and_pickles_unchanged(self):
        import pickle

        def build():
            root = TreeNode(
                NT_X, (TreeNode(NT_X, is_subst=True), TreeNode(NT_X, is_foot=True))
            )
            return BetaTree("b", root)

        fresh, used = build(), build()
        used.substitution_addresses()
        used.adjunction_addresses(frozenset({NT_X}))
        assert used.foot_address == (1,)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == fresh
        assert restored.adjunction_addresses(frozenset({NT_X})) == ((),)


class TestLexeme:
    def test_instantiate_copies_rconst(self):
        rconst = RConst(0.5)
        lexeme = Lexeme(EXP, payload=("rconst", rconst))
        node = lexeme.instantiate()
        node.payload[1].value = 9.9
        assert rconst.value == 0.5

    def test_plain_payload_preserved(self):
        lexeme = Lexeme(EXP, payload=("const", 2.0))
        assert lexeme.instantiate().payload == ("const", 2.0)

    def test_rconst_copy(self):
        rconst = RConst(1.0, mean=2.0, minimum=-5.0, maximum=5.0)
        clone = rconst.copy()
        clone.value = 3.0
        assert rconst.value == 1.0
        assert clone.maximum == 5.0
