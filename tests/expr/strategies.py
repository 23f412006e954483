"""Hypothesis strategies for random expression trees."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.expr import ast
from repro.expr.ast import (
    BINARY_OPS,
    UNARY_OPS,
    Const,
    Ext,
    Param,
    State,
    Var,
)

PARAM_NAMES = ("p0", "p1", "p2")
VAR_NAMES = ("v0", "v1")
STATE_NAMES = ("s0",)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def leaves() -> st.SearchStrategy:
    return st.one_of(
        finite_floats.map(Const),
        st.sampled_from(PARAM_NAMES).map(Param),
        st.sampled_from(VAR_NAMES).map(Var),
        st.sampled_from(STATE_NAMES).map(State),
    )


def expressions(max_leaves: int = 20) -> st.SearchStrategy:
    """Random expression trees over a small fixed alphabet."""

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.tuples(st.sampled_from(BINARY_OPS), children, children).map(
                lambda t: ast.BinOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(UNARY_OPS), children).map(
                lambda t: ast.UnOp(t[0], t[1])
            ),
            st.tuples(st.sampled_from(("Ext1", "Ext2")), children).map(
                lambda t: Ext(t[0], t[1])
            ),
        )

    return st.recursive(leaves(), extend, max_leaves=max_leaves)


def bindings() -> st.SearchStrategy:
    """Random (params, variables, states) binding triples."""
    return st.tuples(
        st.fixed_dictionaries({name: finite_floats for name in PARAM_NAMES}),
        st.fixed_dictionaries({name: finite_floats for name in VAR_NAMES}),
        st.fixed_dictionaries({name: finite_floats for name in STATE_NAMES}),
    )


#: Magnitudes chosen so products overflow to inf and differences of
#: overflowed products are NaN -- the regime where a careless rewrite
#: (x - x -> 0, x * 0 -> 0) changes observable behaviour.
huge_floats = st.floats(min_value=1e150, max_value=1e300).flatmap(
    lambda x: st.sampled_from([x, -x])
)


def huge_bindings() -> st.SearchStrategy:
    """Binding triples of overflow-scale magnitudes."""
    return st.tuples(
        st.fixed_dictionaries({name: huge_floats for name in PARAM_NAMES}),
        st.fixed_dictionaries({name: huge_floats for name in VAR_NAMES}),
        st.fixed_dictionaries({name: huge_floats for name in STATE_NAMES}),
    )
