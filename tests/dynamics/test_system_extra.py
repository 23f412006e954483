"""Additional process-model behaviours: compilation reuse, dt, clamps."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import get_domain
from repro.dynamics import ClampSpec, DriverTable, ProcessModel, simulate
from repro.expr import parse
from repro.expr.ast import Ext, strip_ext
from repro.expr.compile import compile_model, compile_station_kernel
from tests.oracle import DOMAINS, derivations


def decay() -> ProcessModel:
    return ProcessModel.from_equations(
        {"B": parse("0 - k * B", states={"B"})}, var_order=("Vx",)
    )


def drivers(n=20):
    return DriverTable.from_mapping({"Vx": np.zeros(n)})


class TestCompilationCaching:
    def test_compiled_is_cached_per_model(self):
        model = decay()
        assert model.compiled() is model.compiled()

    def test_ext_markers_do_not_change_compiled_semantics(self):
        marked = ProcessModel.from_equations(
            {"B": parse("{0 - k * B}@Ext1", states={"B"})}, var_order=("Vx",)
        )
        plain = decay()
        args = ((0.2,), (0.0,), (3.0,))
        assert marked.compiled()(*args) == plain.compiled()(*args)

    def test_structure_key_is_ext_invariant(self):
        marked = ProcessModel.from_equations(
            {"B": parse("{0 - k * B}@Ext1", states={"B"})}, var_order=("Vx",)
        )
        assert marked.structure_key() == decay().structure_key()


class TestStepSize:
    def test_half_step_decays_less_per_row(self):
        model = decay()
        full = simulate(model, (0.2,), drivers(10), (1.0,), dt=1.0)
        half = simulate(model, (0.2,), drivers(10), (1.0,), dt=0.5)
        assert half[-1, 0] > full[-1, 0]

    def test_dt_scaling_matches_euler_formula(self):
        model = decay()
        trajectory = simulate(model, (0.1,), drivers(5), (1.0,), dt=0.5)
        assert trajectory[-1, 0] == pytest.approx((1 - 0.05) ** 5)


class TestColumnReordering:
    def test_simulation_reorders_driver_columns(self):
        """A driver table in a different column order is auto-aligned."""
        model = ProcessModel.from_equations(
            {"B": parse("Va - Vb", variables={"Va", "Vb"}, states={"B"})},
            var_order=("Va", "Vb"),
        )
        n = 5
        table = DriverTable.from_mapping(
            {"Vb": np.full(n, 1.0), "Va": np.full(n, 3.0)}
        )
        trajectory = simulate(
            model, (), table, (0.0,), clamp=ClampSpec(-100, 100)
        )
        # dB/dt = Va - Vb = 2 each day.
        assert trajectory[-1, 0] == pytest.approx(2.0 * n)


class TestClampInteraction:
    def test_floor_prevents_extinction(self):
        model = decay()
        trajectory = simulate(
            model,
            (0.9,),
            drivers(50),
            (1.0,),
            clamp=ClampSpec(minimum=0.25, maximum=10.0),
        )
        assert trajectory.min() == pytest.approx(0.25)

    def test_strip_ext_is_applied_before_compiling(self):
        expr = parse("{1 + 1}@Ext1")
        assert strip_ext(expr) == parse("1 + 1")


def marked(expr, rng):
    """``expr`` with ``Ext`` markers (some nested) wrapped around a
    random third of its nodes."""
    kids = expr.children()
    if kids:
        expr = expr.with_children(tuple(marked(kid, rng) for kid in kids))
    while rng.random() < 0.3:
        expr = Ext(f"Ext{rng.randrange(9)}", expr)
    return expr


def assert_kernels_ignore_markers(model: ProcessModel) -> None:
    """The model's scalar and station kernels, built from its equations
    as they are, have the source of its ``strip_ext``'d equations."""
    orders = (model.param_order, model.var_order, model.state_names)
    plain = [strip_ext(model.equations[name]) for name in model.state_names]
    assert model._build_scalar_kernel().source == compile_model(plain, *orders).source
    assert (
        model._build_station_kernel().source
        == compile_station_kernel(plain, *orders).source
    )


class TestExtLowering:
    """Kernels compile equations without stripping their ``Ext``
    markers: the lowering reads through them to the same source."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_marked_derivations(self, domain, data):
        model, __ = data.draw(derivations(domain))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        equations = {
            name: marked(expr, rng) for name, expr in model.equations.items()
        }
        assert_kernels_ignore_markers(
            ProcessModel(equations, model.param_order, model.var_order)
        )

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_expert_seeds(self, domain):
        spec = get_domain(domain)
        seeds = spec.make_knowledge().seed_equations
        assert any(isinstance(node, Ext) for e in seeds.values() for node in e.walk())
        assert_kernels_ignore_markers(
            ProcessModel.from_equations(seeds, spec.var_order)
        )
