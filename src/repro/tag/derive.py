"""Deriving trees: adjunction, substitution, and translation to ASTs.

This module implements the two TAG composition operations of Section
III-A (Figure 2) and applies them to a derivation tree to produce the
*derived tree*, then translates completed derived trees into expression
ASTs (:mod:`repro.expr.ast`) that can be simplified, compiled, and
simulated.  :func:`translate_equation` gives the same ASTs straight
from the derivation, one top-level equation at a time, walking each
elementary tree's template once without building the derived tree; the
fitness evaluator's phenotype memo (:mod:`repro.gp.phenotype`)
translates through it.

It also provides the reverse *lifting* direction used when encoding prior
knowledge: an expert process written as an expression AST (possibly with
``Ext`` markers) is lifted into an alpha-tree template (paper Figure 7(a)).
"""

from __future__ import annotations

from typing import Any

from repro.expr import ast
from repro.expr.ast import BinOp, Const, Expr, Ext, Param, State, UnOp, Var
from repro.tag.derivation import DerivationError, DerivationNode, DerivationTree
from repro.tag.symbols import EXP, MODEL, Symbol, connector_symbol, terminal
from repro.tag.trees import Address, RConst, TreeError, TreeNode


class DeriveError(ValueError):
    """Raised when a derivation cannot produce a completed tree."""


def adjoin(target: TreeNode, address: Address, auxiliary: TreeNode) -> TreeNode:
    """Adjoin ``auxiliary`` (a derived beta-tree) into ``target`` at ``address``.

    Implements the three steps of Figure 2(a): the subtree at ``address``
    is disconnected, the auxiliary tree is planted in its place, and the
    disconnected subtree is re-attached at the auxiliary tree's foot node.
    """
    site = target.node_at(address)
    if site.symbol != auxiliary.symbol:
        raise DeriveError(
            f"cannot adjoin: site labelled {site.symbol}, auxiliary root "
            f"labelled {auxiliary.symbol}"
        )
    planted = _replace_foot(auxiliary, site)
    return target.replace_at(address, planted)


def _replace_foot(tree: TreeNode, replacement: TreeNode) -> TreeNode:
    """Replace the unique foot node of ``tree`` with ``replacement``."""
    foot_address = None
    for address, node in tree.walk():
        if node.is_foot:
            foot_address = address
            break
    if foot_address is None:
        raise DeriveError("auxiliary tree has no foot node")
    return tree.replace_at(foot_address, replacement)


def substitute_node(target: TreeNode, address: Address, leaf: TreeNode) -> TreeNode:
    """Substitute ``leaf`` for the substitution slot at ``address``
    (Figure 2(b), restricted to childless alpha-trees)."""
    slot = target.node_at(address)
    if not slot.is_subst:
        raise DeriveError(f"node at {address} is not a substitution slot")
    if slot.symbol != leaf.symbol:
        raise DeriveError(
            f"cannot substitute: slot labelled {slot.symbol}, lexeme "
            f"labelled {leaf.symbol}"
        )
    return target.replace_at(address, leaf)


def derive(derivation: DerivationTree) -> TreeNode:
    """Produce the derived tree encoded by ``derivation``.

    Adjunctions are applied bottom-up over each elementary tree's template
    so that recorded Gorn addresses always refer to elementary-tree nodes,
    independent of the order in which siblings were adjoined.

    The derived tree's ``rconst`` leaves carry the genome's own
    :class:`~repro.tag.trees.RConst` objects, not copies, so a
    translation can tell which genome constant became which ``_Rk``
    (see :func:`to_expressions`).  The derived tree aliases the genome's
    constants: read it before the genome's constants change.

    The fitness evaluator does not build derived trees: it translates
    derivations straight to expressions (:func:`translate_equation`).
    ``derive`` serves lint, tests and the uncached reference
    :meth:`~repro.gp.individual.Individual.phenotype`.
    """
    validate(derivation)
    derived = _build(derivation.root)
    # Pre-order with an explicit stack: nested ``walk`` generators cost
    # a frame per tree level for every node of a large derived tree.
    pending = [derived]
    while pending:
        node = pending.pop()
        if node.is_subst:
            raise DeriveError("derived tree is not completed: open slot remains")
        if node.is_foot:
            raise DeriveError("derived tree retains a foot node")
        pending.extend(reversed(node.children))
    return derived


def validate(derivation: DerivationTree) -> None:
    """Run :meth:`DerivationTree.validate`, failing as :class:`DeriveError`.

    :func:`derive` runs it first; callers of :func:`translate_equation`
    run it before translating.
    """
    try:
        derivation.validate()
    except DerivationError as error:
        raise DeriveError(str(error)) from None


def _build(deriv_node: DerivationNode) -> TreeNode:
    return _rebuild(deriv_node, deriv_node.tree.root, ())


def _rebuild(
    deriv_node: DerivationNode, node: TreeNode, address: Address
) -> TreeNode:
    """The derived copy of ``node``, at ``address`` of ``deriv_node``'s
    elementary tree, with its slot filled and its adjunction applied."""
    if node.is_subst:
        lexeme = deriv_node.lexemes.get(address)
        if lexeme is None:
            raise DeriveError(
                f"unfilled substitution slot at {address} in "
                f"{deriv_node.tree.name!r}"
            )
        return TreeNode(lexeme.symbol, payload=lexeme.payload)
    children = tuple(
        _rebuild(deriv_node, child, address + (index,))
        for index, child in enumerate(node.children)
    )
    rebuilt = TreeNode(
        node.symbol,
        children,
        is_foot=node.is_foot,
        is_subst=False,
        payload=node.payload,
    )
    child_derivation = deriv_node.children.get(address)
    if child_derivation is not None:
        auxiliary = _build(child_derivation)
        if auxiliary.symbol != rebuilt.symbol:
            raise DeriveError(
                f"beta {child_derivation.tree.name!r} incompatible at "
                f"{address} of {deriv_node.tree.name!r}"
            )
        rebuilt = _replace_foot(auxiliary, rebuilt)
    return rebuilt


def to_expressions(
    derived: TreeNode, rconsts: list[RConst] | None = None
) -> tuple[list[Expr], dict[str, float]]:
    """Translate a completed derived tree into expression ASTs.

    Returns one expression per top-level equation (children of a ``Model``
    root, or a single expression otherwise) together with the values of
    the random constants collected from ``rconst`` payloads, named
    ``_R0``, ``_R1``, ... in traversal order.  When ``rconsts`` is given,
    the :class:`~repro.tag.trees.RConst` behind each ``_Rk`` is appended
    to it as position ``k``.
    """
    met: list[RConst] = []
    if node_is_model(derived):
        expressions = [_translate_tree(child, met) for child in derived.children]
    else:
        expressions = [_translate_tree(derived, met)]
    if rconsts is not None:
        rconsts.extend(met)
    return expressions, {f"_R{k}": rconst.value for k, rconst in enumerate(met)}


def _translate_tree(node: TreeNode, met: list[RConst]) -> Expr:
    if node.payload is not None:
        return _terminal(node.payload, met, 0)
    kids = node.children
    if len(kids) == 1:
        return _translate_tree(kids[0], met)
    if len(kids) == 2 and _op_of(kids[0]) is not None:
        return UnOp(_op_of(kids[0]), _translate_tree(kids[1], met))
    if len(kids) == 3 and _op_of(kids[1]) is not None:
        lhs = _translate_tree(kids[0], met)
        return BinOp(_op_of(kids[1]), lhs, _translate_tree(kids[2], met))
    raise DeriveError(
        f"untranslatable node {node.symbol} with {len(kids)} children"
    )


def _terminal(payload: tuple, met: list[RConst], offset: int) -> Expr:
    """The leaf for a terminal payload; an ``rconst`` is appended to
    ``met`` and named ``_R{offset + its position in met}``."""
    kind, value = payload
    if kind == "const":
        return Const(value)
    if kind == "param":
        return Param(value)
    if kind == "var":
        return Var(value)
    if kind == "state":
        return State(value)
    if kind == "rconst":
        met.append(value)
        return Param(f"_R{offset + len(met) - 1}")
    if kind == "op":
        raise DeriveError("operator terminal encountered out of context")
    raise DeriveError(f"unknown payload kind {kind!r}")


# -- Straight from derivation to expressions -----------------------------
#
# The translator below walks each elementary tree's template in place of
# the derived tree.  It stands at a *view*: a derivation node, a node of
# that derivation node's elementary tree, the node's address, and the
# view the elementary tree's foot stands for (None outside a beta).  A
# substitution slot reads as its lexeme; an adjoined beta stands where
# its site stands, with the site itself at the beta's foot.

_View = tuple[DerivationNode, TreeNode, Address, Any]


def translate_equation(
    root: DerivationNode, index: int, offset: int, rconsts: list[RConst]
) -> Expr:
    """Translate top-level equation ``index`` of a validated derivation.

    ``root`` is the derivation's root, labelled by a ``Model``-rooted
    alpha-tree with no adjunction at its root address, so equation
    ``index`` depends only on the root's lexemes and children under
    address ``(index,)``.  The equation's random constants are appended
    to ``rconsts`` (pass an empty list) and named from ``_R{offset}`` on.
    With ``offset`` the number of constants in the equations before it,
    the result is ``to_expressions(derive(derivation))[0][index]``, and
    a translation fault raises the :class:`DeriveError` that
    :func:`to_expressions` raises.
    """
    template = root.tree.root.children[index]
    return _translate(*_resolve(root, template, (index,), None), rconsts, offset)


def _resolve(
    node: DerivationNode, template: TreeNode, address: Address, foot: Any
) -> _View:
    """The view of the derived node standing at ``address`` of ``node``'s
    elementary tree (``template`` is the node there)."""
    if template.is_subst:
        return node, template, address, foot
    child = node.children.get(address)
    while child is not None:
        foot = (node, template, address, foot)
        node, template, address = child, child.tree.root, ()
        child = node.children.get(address)
    if template.is_foot:
        return foot
    return node, template, address, foot


def _view_payload(
    node: DerivationNode, template: TreeNode, address: Address
) -> Any:
    if template.is_subst:
        return node.lexemes[address].payload
    return template.payload


def _translate(
    node: DerivationNode,
    template: TreeNode,
    address: Address,
    foot: Any,
    met: list[RConst],
    offset: int,
) -> Expr:
    """:func:`_translate_tree` of the derived node at a view."""
    payload = _view_payload(node, template, address)
    if payload is not None:
        return _terminal(payload, met, offset)
    kids = template.children
    if len(kids) == 1:
        return _translate(
            *_resolve(node, kids[0], address + (0,), foot), met, offset
        )
    if len(kids) == 2:
        op = _view_op(_resolve(node, kids[0], address + (0,), foot))
        if op is not None:
            operand = _resolve(node, kids[1], address + (1,), foot)
            return UnOp(op, _translate(*operand, met, offset))
    elif len(kids) == 3:
        op = _view_op(_resolve(node, kids[1], address + (1,), foot))
        if op is not None:
            lhs = _translate(
                *_resolve(node, kids[0], address + (0,), foot), met, offset
            )
            rhs = _translate(
                *_resolve(node, kids[2], address + (2,), foot), met, offset
            )
            return BinOp(op, lhs, rhs)
    raise DeriveError(
        f"untranslatable node {template.symbol} with {len(kids)} children"
    )


def _view_op(view: _View) -> str | None:
    payload = _view_payload(view[0], view[1], view[2])
    if payload is not None and payload[0] == "op":
        return payload[1]
    return None


def node_is_model(node: TreeNode) -> bool:
    """True if ``node`` is a combined multi-equation root (Section III-C)."""
    return node.symbol == MODEL


def _op_of(node: TreeNode) -> str | None:
    if node.payload is not None and node.payload[0] == "op":
        return node.payload[1]
    return None


def lift(expr: Expr, exp_symbol: Symbol = EXP) -> TreeNode:
    """Lift an expression AST into an elementary-tree template.

    ``Ext`` markers become connector extension-point nodes (adjunction
    sites); all other interior structure is labelled with ``exp_symbol``.
    This is how the expert-written processes of Section III-C are encoded
    as the seed alpha-tree.
    """
    if isinstance(expr, Const):
        return _leaf(f"const:{expr.value:g}", ("const", expr.value))
    if isinstance(expr, Param):
        return _leaf(f"param:{expr.name}", ("param", expr.name))
    if isinstance(expr, Var):
        return _leaf(f"var:{expr.name}", ("var", expr.name))
    if isinstance(expr, State):
        return _leaf(f"state:{expr.name}", ("state", expr.name))
    if isinstance(expr, Ext):
        return TreeNode(
            connector_symbol(expr.name),
            (lift(expr.operand, exp_symbol),),
        )
    if isinstance(expr, UnOp):
        return TreeNode(
            exp_symbol,
            (op_leaf(expr.op), lift(expr.operand, exp_symbol)),
        )
    if isinstance(expr, BinOp):
        return TreeNode(
            exp_symbol,
            (
                lift(expr.lhs, exp_symbol),
                op_leaf(expr.op),
                lift(expr.rhs, exp_symbol),
            ),
        )
    raise TreeError(f"cannot lift node of type {type(expr).__name__}")


def lift_model(equations: dict[str, Expr]) -> TreeNode:
    """Lift several equations into a single tree under a ``Model`` root.

    Multiple intertwined processes (e.g. dBPhy/dt and dBZoo/dt) are encoded
    as one alpha-tree by combining the per-equation trees under a common
    root (Section III-C, "Revising Multiple Processes").  The equation
    order fixes which derived child maps to which state variable.
    """
    children = tuple(lift(expr) for expr in equations.values())
    return TreeNode(MODEL, children)


def op_leaf(op: str) -> TreeNode:
    """A terminal leaf carrying an operator payload."""
    return _leaf(f"op:{op}", ("op", op))


def _leaf(symbol_name: str, payload: tuple) -> TreeNode:
    return TreeNode(terminal(symbol_name), payload=payload)


def expressions_of(
    derivation: DerivationTree,
) -> tuple[list[Expr], dict[str, float]]:
    """Convenience: derive and translate in one call."""
    if not isinstance(derivation, DerivationTree):
        raise TypeError("expressions_of expects a DerivationTree")
    return to_expressions(derive(derivation))


def render_equations(expressions: list[Expr], state_names: list[str]) -> str:
    """Pretty-print derived equations in the paper's dX/dt notation."""
    lines = []
    for state_name, expression in zip(state_names, expressions):
        lines.append(f"d{state_name}/dt = {ast.strip_ext(expression)}")
    return "\n".join(lines)
