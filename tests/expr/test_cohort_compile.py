"""Fused cohort kernels: lane-exact equivalence with per-member kernels.

The cohort compiler (:func:`repro.expr.compile.compile_model_cohort`)
evaluates every member structure's subexpressions over the full fused
lane width, sharing a cohort-wide value-numbering table.  The contract
is *bit* identity per lane: lane ``m * K + k`` of the fused kernel must
equal column ``k`` of member ``m``'s own batched kernel -- including NaN
patterns, protected-operator edge cases, and lanes whose neighbours
carry garbage or NaN.  Padding lanes must never influence live lanes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var, strip_ext
from repro.expr.compile import (
    CompilationError,
    CompiledCohortKernel,
    compile_model_batched,
    compile_model_cohort,
    generate_cohort_source,
)
from tests.expr.strategies import (
    PARAM_NAMES,
    STATE_NAMES,
    VAR_NAMES,
    expressions,
    finite_floats,
)


def member_kernels(members):
    """Per-member batched kernels matching a fused cohort's members."""
    return [
        compile_model_batched(
            [strip_ext(expr) for expr in exprs],
            param_order,
            VAR_NAMES,
            STATE_NAMES,
        )
        for exprs, param_order in members
    ]


def fused_kernel(members, lanes):
    return compile_model_cohort(
        [
            ([strip_ext(expr) for expr in exprs], param_order)
            for exprs, param_order in members
        ],
        VAR_NAMES,
        STATE_NAMES,
        lanes,
    )


def assert_lanes_match(fused_out, member_outs, lanes):
    """Fused lanes must equal the standalone columns bit for bit."""
    for member, out in enumerate(member_outs):
        lo = member * lanes
        got = fused_out[:, lo : lo + lanes]
        assert np.array_equal(got, out, equal_nan=True), (
            f"member {member} lanes differ:\n{got}\nvs\n{out}"
        )


lane_floats = st.one_of(finite_floats, st.just(float("nan")))


class TestLaneExactness:
    @settings(max_examples=100, deadline=None)
    @given(
        expressions(max_leaves=12),
        expressions(max_leaves=12),
        st.lists(lane_floats, min_size=26, max_size=26),
    )
    def test_two_member_cohort_matches_standalone(self, e0, e1, values):
        """Random members, reversed param order for the second, random
        lane contents (NaN included): every lane bit-identical.  A third
        member reuses the first's expression object under the reversed
        order, which must not inherit the first member's temps."""
        lanes = 2
        members = [
            ([e0], PARAM_NAMES),
            ([e1], tuple(reversed(PARAM_NAMES))),
            ([e0], tuple(reversed(PARAM_NAMES))),
        ]
        kernel = fused_kernel(members, lanes)
        width = kernel.width
        pool = iter(values)
        params = np.array(
            [[next(pool) for _ in range(width)] for _ in PARAM_NAMES]
        )
        states = np.array(
            [[next(pool) for _ in range(width)] for _ in STATE_NAMES]
        )
        row = np.array([next(pool) for _ in VAR_NAMES])
        # A two-row driver block hoisted in one precompute; the second
        # row reverses the first.
        table = np.array([row, row[::-1]])
        hoisted = kernel.precompute(params, table)
        standalones = member_kernels(members)
        for t, table_row in enumerate(table):
            fused_out = kernel.step(params, hoisted, t, states)
            assert fused_out.shape == (len(STATE_NAMES), width)
            outs = []
            for member, standalone in enumerate(standalones):
                lo = member * lanes
                outs.append(
                    standalone(
                        params[:, lo : lo + lanes],
                        table_row,
                        states[:, lo : lo + lanes],
                    )
                )
            assert_lanes_match(fused_out, outs, lanes)

    @settings(max_examples=60, deadline=None)
    @given(
        expressions(max_leaves=10),
        st.lists(lane_floats, min_size=20, max_size=20),
    )
    def test_pad_lane_nan_never_leaks(self, expr, values):
        """A NaN-poisoned pad lane leaves every other lane's output
        bit-identical to a run where that lane held finite values."""
        lanes = 2
        members = [([expr], PARAM_NAMES), ([expr], PARAM_NAMES)]
        kernel = fused_kernel(members, lanes)
        width = kernel.width
        pool = iter(values)
        params = np.array(
            [[next(pool) for _ in range(width)] for _ in PARAM_NAMES]
        )
        states = np.array(
            [[next(pool) for _ in range(width)] for _ in STATE_NAMES]
        )
        row = np.array([next(pool) for _ in VAR_NAMES])
        params = np.nan_to_num(params)
        states = np.nan_to_num(states)
        row = np.nan_to_num(row)
        baseline = kernel(params, row, states)
        poisoned_params = params.copy()
        poisoned_states = states.copy()
        # Poison the last lane (a padding lane in the fitness layer's
        # packing); every other lane must not move by a single bit.
        poisoned_params[:, -1] = np.nan
        poisoned_states[:, -1] = np.nan
        poisoned = kernel(poisoned_params, row, poisoned_states)
        assert np.array_equal(
            poisoned[:, :-1], baseline[:, :-1], equal_nan=True
        )


class TestCrossMemberPooling:
    def test_identical_positional_structure_is_computed_once(self):
        """Two members whose equations are positionally identical (their
        parameter *names* differ, their indices match) collapse onto the
        same temps, and the output is written in one full-width line."""
        e0 = ast.add(ast.mul(Param("a"), State("s0")), Var("v0"))
        e1 = ast.add(ast.mul(Param("c"), State("s0")), Var("v0"))
        source = generate_cohort_source(
            [([e0], ("a", "b")), ([e1], ("c", "d"))],
            VAR_NAMES,
            STATE_NAMES,
            4,
        )
        # One unsliced write == both members share the result temp.
        assert "_out[0] = " in source
        assert "_out[0, " not in source

    def test_divergent_members_write_their_own_slices(self):
        e0 = ast.mul(Param("a"), State("s0"))
        e1 = ast.add(State("s0"), State("s0"))
        source = generate_cohort_source(
            [([e0], ("a",)), ([e1], ())], VAR_NAMES, STATE_NAMES, 2
        )
        assert "_out[0, 0:2] = " in source
        assert "_out[0, 2:4] = " in source

    def test_shared_subexpression_cse_shrinks_source(self):
        """A subexpression shared across members appears once in the
        fused source, not once per member."""
        shared = ast.mul(Var("v0"), Param("p0"))
        e0 = ast.add(shared, State("s0"))
        e1 = ast.sub(ast.mul(Var("v0"), Param("p0")), State("s0"))
        source = generate_cohort_source(
            [([e0], PARAM_NAMES), ([e1], PARAM_NAMES)],
            VAR_NAMES,
            STATE_NAMES,
            2,
        )
        # Value numbering deduplicates: no two assignments share a RHS.
        rhs = [
            line.split(" = ", 1)[1]
            for line in source.splitlines()
            if " = " in line and not line.strip().startswith("_out")
        ]
        assert len(rhs) == len(set(rhs)), source

    def test_narrow_temp_slice_writes_broadcast(self):
        """Constant- and driver-only equations stay narrow; their slice
        writes broadcast instead of slicing a width-1 temporary."""
        e0 = Const(3.0)
        e1 = ast.mul(Const(2.0), Var("v0"))
        e2 = ast.mul(Param("p0"), State("s0"))
        members = [([e0], ()), ([e1], ()), ([e2], PARAM_NAMES)]
        lanes = 2
        kernel = fused_kernel(members, lanes)
        params = np.arange(float(len(PARAM_NAMES) * kernel.width)).reshape(
            len(PARAM_NAMES), kernel.width
        )
        states = np.full((1, kernel.width), 2.0)
        row = np.array([0.5, 0.0])
        out = kernel(params, row, states)
        outs = []
        for member, standalone in enumerate(member_kernels(members)):
            lo = member * lanes
            member_params = params[: len(members[member][1]), lo : lo + lanes]
            outs.append(
                standalone(member_params, row, states[:, lo : lo + lanes])
            )
        assert_lanes_match(out, outs, lanes)


class TestCohortKernelShape:
    def test_metadata(self):
        members = [
            ([ast.mul(Param("p0"), State("s0"))], PARAM_NAMES),
            ([State("s0")], ()),
        ]
        kernel = fused_kernel(members, 8)
        assert isinstance(kernel, CompiledCohortKernel)
        assert kernel.n_members == 2
        assert kernel.lanes_per_member == 8
        assert kernel.width == 16
        assert kernel.n_params == len(PARAM_NAMES)
        assert kernel.n_states == len(STATE_NAMES)
        assert "def _compiled_cohort" in kernel.source

    def test_empty_cohort_rejected(self):
        with pytest.raises(CompilationError):
            compile_model_cohort([], VAR_NAMES, STATE_NAMES, 2)

    def test_nonpositive_lanes_rejected(self):
        with pytest.raises(CompilationError):
            compile_model_cohort(
                [([State("s0")], ())], VAR_NAMES, STATE_NAMES, 0
            )

    def test_wrong_equation_count_rejected(self):
        with pytest.raises(CompilationError):
            compile_model_cohort(
                [([State("s0"), State("s0")], ())],
                VAR_NAMES,
                STATE_NAMES,
                2,
            )
