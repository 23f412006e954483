"""Fused cohort kernels: cross-member pooling and kernel shape.

The cohort compiler (:func:`repro.expr.compile.compile_model_cohort`)
evaluates every member structure's subexpressions over the full fused
lane width, sharing a cohort-wide value-numbering table.  Lane
``m * K + k`` must equal column ``k`` of member ``m``'s own batched
kernel bit for bit, NaN and padding lanes included; the differential
oracle harness (``tests/test_oracle.py``) checks that on random
cohorts and named ones (shared tree objects, narrow members).  These
tests pin the generated source's sharing and the kernel's metadata.
"""

from __future__ import annotations

import pytest

from repro.expr import ast
from repro.expr.ast import Param, State, Var, strip_ext
from repro.expr.compile import (
    CompilationError,
    CompiledCohortKernel,
    compile_model_cohort,
    generate_cohort_source,
)
from tests.expr.strategies import PARAM_NAMES, STATE_NAMES, VAR_NAMES


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
