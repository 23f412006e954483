"""The compiled river-network stream against the ``steps()`` stream.

``RiverTask.error_stream`` compiles a candidate into a station kernel
(:class:`repro.expr.compile.CompiledStationKernel`) and runs it inside
the network's generated day loop.  It must reproduce, day by day and
bit for bit, the squared errors of the stream stepped through
:meth:`RiverSystemSimulator.steps` with the compiled step function, and
raise the same exception (type and message) on the same day; the
interpreter is the oracle of both.  The differential oracle harness
(``tests/test_oracle.py``) checks that on candidates drawn through the
engine's initialiser and operators; named cases here pin the NaN,
clamp, lag and libm corners.  Pickling, checkpoint resume and
process-pool runs on the network task are covered at the end.
"""

from __future__ import annotations

import math
import pickle
import random
import warnings

import numpy as np
import pytest

from repro.dynamics import ClampSpec, DriverTable, ProcessModel
from repro.dynamics.integrate import SimulationDiverged
from repro.expr import parse
from repro.expr.compile import (
    KERNEL_CACHE,
    CompiledStationKernel,
    KernelCache,
    compile_model,
    compile_station_kernel,
)
from repro.gp.checkpoint import load_checkpoint
from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine, run_many
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.init import random_individual
from repro.gp.operators import gaussian_mutation
from repro.gp.parallel import run_many_parallel
from repro.river.hydrology import HydrologicalProcess
from repro.river.network import RiverNetwork, Station
from repro.river.simulator import (
    RiverSimulationError,
    RiverSystemSimulator,
    RiverTask,
    build_mixing_schedules,
    collapse_upstream,
)
from tests.oracle import CHAIN_CONFIG, assert_same_stream, bits, outcome, river_setup


def stacked_drivers(task) -> np.ndarray:
    """Every station's drivers as one ``(n_columns, n_stations, rows)``
    hoist block."""
    tables = task.simulator.drivers
    return np.stack(
        [tables[name].values.T for name in task.simulator.biological_stations],
        axis=1,
    )


def chain_network(horizon: int = 30):
    """Headwater A -> B -> C: C reads B's state through a 3-day lag."""
    network = RiverNetwork(flow_velocity_km_per_day=25.0)
    network.add_station(Station("A", headwater=True, retention=0.2))
    network.add_station(Station("B", retention=0.3))
    network.add_station(Station("C", retention=0.4))
    network.add_segment("A", "B", 50.0)
    network.add_segment("B", "C", 75.0)
    days = np.arange(horizon, dtype=float)
    flows = HydrologicalProcess(network).route_flows(
        {"A": 20.0 + 5.0 * np.sin(days / 3.0)}
    )
    return network, build_mixing_schedules(network, flows, {})


def chain_task(
    model: ProcessModel,
    boundary: dict[str, np.ndarray] | None = None,
    clamp: ClampSpec | None = None,
    drivers: dict[str, np.ndarray] | None = None,
    horizon: int = 30,
) -> RiverTask:
    network, schedules = chain_network(horizon)
    days = np.arange(horizon, dtype=float)
    if drivers is None:
        drivers = {"Vx": 1.0 + np.cos(days), "Vy": 2.0 + days / horizon}
    if boundary is None:
        boundary = {
            state: 3.0 + k + np.sin(days / (k + 2.0))
            for k, state in enumerate(model.state_names)
        }
    simulator = RiverSystemSimulator(
        network=network,
        schedules=schedules,
        drivers={
            name: DriverTable.from_mapping(drivers) for name in ("B", "C")
        },
        boundary={"A": boundary},
        initial_states={
            name: tuple(1.0 + k for k in range(len(model.state_names)))
            for name in ("B", "C")
        },
        clamp=clamp or ClampSpec(minimum=1e-3, maximum=1e6),
    )
    return RiverTask(
        simulator=simulator,
        observed=np.linspace(1.0, 4.0, horizon),
        target_station="C",
        target_state=model.state_names[0],
        state_names=model.state_names,
        var_order=model.var_order,
    )


def chain_model(*equations: str, var_order=("Vx", "Vy")) -> ProcessModel:
    names = [f"X{k}" for k in range(len(equations))]
    return ProcessModel.from_equations(
        {
            name: parse(text, variables=set(var_order), states=set(names))
            for name, text in zip(names, equations)
        },
        var_order=var_order,
    )


class TestNamedCases:
    def test_nan_boundary_series(self):
        model = chain_model("a * X0 - b * Vx * X1", "c * X0 * Vy - X1")
        days = np.arange(30, dtype=float)
        boundary = {"X0": 3.0 + days, "X1": 2.0 + 0.0 * days}
        boundary["X1"][6] = math.nan
        task = chain_task(model, boundary=boundary)
        params = (0.1, 0.2, 0.3)
        __, error = outcome(task.error_stream(model, params))
        assert error == (SimulationDiverged, "state X1 at B is NaN")
        assert_same_stream(task, model, params)

    @staticmethod
    def overflowing_hoist():
        # Vx * k overflows to inf from day 5 on, so the hoisted frontier
        # value (Vx * k - Vx * k) is inf - inf = NaN there.
        model = chain_model("X0 * (Vx * k - Vx * k) + a", "0 - X1")
        vx = np.ones(30)
        vx[5:] = 1e300
        task = chain_task(model, drivers={"Vx": vx, "Vy": np.ones(30)})
        return task, model, (0.5, 1e10)

    def test_nan_inside_the_hoisted_block(self):
        task, model, params = self.overflowing_hoist()
        kernel = model.station_kernel()
        assert kernel.n_frontier == 1
        values, error = outcome(task.error_stream(model, params))
        assert len(values) == 5
        assert error is not None and error[1] == "state X0 at B is NaN"
        assert_same_stream(task, model, params)

    def test_hoisted_overflow_warns_nowhere(self):
        # Both streams overflow silently: a RuntimeWarning escalated to an
        # error would escape RiverTask.rmse.  The hoist runs under
        # np.errstate; the steps() stream's driver rows are Python floats.
        task, model, params = self.overflowing_hoist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepped = outcome(task.stepped_errors(model, params))
            network = outcome(task.error_stream(model, params))
        assert network == stepped
        assert network[1] == (SimulationDiverged, "state X0 at B is NaN")

    def test_streams_yield_python_floats(self):
        model = chain_model("a * Vx - b * X0 * X1", "c * X0 - d * X1 * Vy")
        task = chain_task(model)
        params = (0.7, 0.05, 0.2, 0.1)
        for stream in (
            task.error_stream(model, params),
            task.stepped_errors(model, params),
            task.stepped_errors(model, params, use_compiled=False),
        ):
            errors = list(stream)
            assert len(errors) == 30
            assert all(type(error) is float for error in errors)

    def test_infinite_clamp_bounds_raise_isfinite(self):
        model = chain_model("g * X0 * Vy")
        task = chain_task(
            model, clamp=ClampSpec(minimum=-math.inf, maximum=math.inf)
        )
        params = (1e120,)
        values, error = outcome(task.error_stream(model, params))
        assert error is not None and error[1] == "prediction is not finite"
        assert values
        assert_same_stream(task, model, params)

    def test_lag_longer_than_elapsed_days(self):
        network, __ = chain_network()
        lags = {s.station: s.lag_days for s in collapse_upstream(network, "C")}
        assert lags == {"B": 3}
        model = chain_model("a * Vx - b * X0 * X1", "c * X0 - d * X1 * Vy")
        task = chain_task(model)
        params = (0.7, 0.05, 0.2, 0.1)
        values, error = outcome(task.error_stream(model, params))
        assert error is None and len(values) == 30
        assert_same_stream(task, model, params)

    def test_stream_closed_early_then_rerun_on_cached_kernel(self):
        task, knowledge, grammar = river_setup()
        individual = random_individual(
            grammar, knowledge, CHAIN_CONFIG, random.Random(11)
        )
        model, params = individual.phenotype(task.state_names, task.var_order)
        full = outcome(task.stepped_errors(model, params))
        # An ES cut: Algorithm 1 stops consuming after a few days.
        assert outcome(task.error_stream(model, params), 7) == (full[0][:7], None)
        kernel = model.station_kernel()
        assert KERNEL_CACHE.get(model._kernel_key("station")) is kernel
        assert outcome(task.error_stream(model, params)) == full
        assert model.station_kernel() is kernel

    @pytest.mark.parametrize("op", ["exp", "log"])
    def test_hoisted_exp_log_use_libm(self, op):
        rng = np.random.default_rng(5)
        draws = rng.uniform(0.5, 2.0, 20_000)
        vectorised = np.exp(draws) if op == "exp" else np.log(np.abs(draws))
        libm = np.array(
            [math.exp(x) if op == "exp" else math.log(abs(x)) for x in draws]
        )
        disagree = draws[vectorised != libm][:30]
        # NumPy and libm differ in the last ulp at some arguments; the
        # kernel must hoist these through libm.
        assert len(disagree) == 30
        model = chain_model(f"X0 * {op}(Vx) * a", "0 - X1")
        task = chain_task(
            model,
            drivers={"Vx": disagree, "Vy": np.ones(30)},
            clamp=ClampSpec(minimum=-math.inf, maximum=math.inf),
        )
        hoist, station = model.station_kernel().make((1e-9,))
        frontier = hoist(stacked_drivers(task))
        step = model.compiled()
        for row, x in zip(frontier[0], disagree):
            assert station(row, 2.0, 3.0) == step((1e-9,), (x, 1.0), (2.0, 3.0))
        assert_same_stream(task, model, (1e-9,))

    def test_hoisted_protected_guards(self):
        # Arguments at and beyond every protected operator's guard: the
        # exp clamp, the log and division epsilons, signed zeros, infinities.
        guards = [61.0, 100.0, 60.0, 1e-13, 0.0, -0.0, -1e-13, 1e-12, -5.0]
        vx = np.array((guards * 4)[:30])
        vx[-2:] = (math.inf, -math.inf)
        model = chain_model(
            "X0 * (exp(Vx) * a + log(Vx) + a / Vx + min(Vx, a) - max(Vx, a))",
            "0 - X1",
        )
        task = chain_task(
            model,
            drivers={"Vx": vx, "Vy": np.ones(30)},
            clamp=ClampSpec(minimum=-math.inf, maximum=math.inf),
        )
        params = (1e-30,)
        hoist, station = model.station_kernel().make(params)
        frontier = hoist(stacked_drivers(task))
        step = model.compiled()
        for row, x in zip(frontier[0], vx.tolist()):
            assert bits(station(row, 2.0, 3.0)) == bits(
                step(params, (x, 1.0), (2.0, 3.0))
            )
        assert_same_stream(task, model, params)

    def test_driver_tables_must_share_columns(self):
        # The hoist stacks every station's drivers into one block, read
        # through one column order.
        network, schedules = chain_network()
        days = np.arange(30, dtype=float)
        with pytest.raises(RiverSimulationError, match="differ in columns"):
            RiverSystemSimulator(
                network=network,
                schedules=schedules,
                drivers={
                    "B": DriverTable.from_mapping({"Vx": days, "Vy": days}),
                    "C": DriverTable.from_mapping({"Vy": days, "Vx": days}),
                },
                boundary={"A": {"X0": days}},
                initial_states={"B": (1.0,), "C": (1.0,)},
            )


class TestStationKernel:
    def test_parameter_only_work_moves_out_of_the_step(self):
        exprs = [
            parse("exp(a * b) * X0 - min(X0, Vx / c)", {"Vx"}, {"X0"}),
        ]
        kernel = compile_station_kernel(exprs, ("a", "b", "c"), ("Vx",), ("X0",))
        step_source = kernel.source.split("def station")[1]
        assert "_exp" not in step_source and "P[" not in step_source
        assert kernel.n_frontier == 1
        hoist, station = kernel.make((0.5, 2.0, 3.0))
        drivers = np.array([[[0.5, 4.0, -2.0]]])
        scalar = compile_model(exprs, ("a", "b", "c"), ("Vx",), ("X0",))
        for row, vx in zip(hoist(drivers)[0], (0.5, 4.0, -2.0)):
            assert station(row, 1.5) == scalar((0.5, 2.0, 3.0), (vx,), (1.5,))

    def test_state_free_equation_returns_frontier_and_setup_values(self):
        exprs = [parse("Vx * a", {"Vx"}, {"X0"}), parse("a + 1", (), {"X0"})]
        kernel = compile_station_kernel(exprs, ("a",), ("Vx",), ("X0", "X1"))
        hoist, station = kernel.make((3.0,))
        rows = hoist(np.array([[[2.0, 5.0]]]))[0]
        assert [station(row, 0.0, 0.0) for row in rows] == [(6.0, 4.0), (15.0, 4.0)]


def network_config(**overrides) -> GMRConfig:
    defaults = dict(
        population_size=6,
        max_generations=3,
        max_size=10,
        elite_size=1,
        local_search_steps=1,
        sigma_rampdown_generations=1,
    )
    defaults.update(overrides)
    return GMRConfig(**defaults)


def network_engine(**overrides) -> GMREngine:
    task, knowledge, __ = river_setup()
    return GMREngine(knowledge, task, network_config(**overrides))


def histories(result) -> list[float]:
    return [record.best_fitness for record in result.history]


class TestEvaluatorCompilePhase:
    def test_compile_phase_builds_only_station_kernels(self, monkeypatch):
        import repro.dynamics.system as system

        def no_scalar_kernel(*args, **kwargs):
            raise AssertionError("scalar kernel compiled for the network task")

        builds = []

        def counted_station_kernel(*args, **kwargs):
            builds.append(1)
            return compile_station_kernel(*args, **kwargs)

        task, knowledge, grammar = river_setup()
        kernels = KernelCache(max_entries=512)
        monkeypatch.setattr(system, "KERNEL_CACHE", kernels)
        monkeypatch.setattr(system, "compile_model", no_scalar_kernel)
        monkeypatch.setattr(
            system, "compile_station_kernel", counted_station_kernel
        )
        evaluator = GMRFitnessEvaluator(task=task, config=network_config())
        rng = random.Random(21)
        for __ in range(6):
            individual = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
            evaluator.evaluate(individual)
            # Same structure, new parameters: the kernel is reused.
            evaluator.evaluate(
                gaussian_mutation(individual, knowledge, CHAIN_CONFIG, rng)
            )
        assert kernels.stats.hits >= 6
        assert len(builds) == kernels.stats.misses <= 6
        assert evaluator.stats.compile_time > 0.0
        assert all(
            isinstance(kernel, CompiledStationKernel)
            for kernel in kernels._entries.values()
        )


class TestPickling:
    def test_task_and_evaluator_with_warm_caches_round_trip(self):
        task, knowledge, grammar = river_setup()
        evaluator = GMRFitnessEvaluator(task=task, config=network_config())
        individuals = [
            random_individual(grammar, knowledge, CHAIN_CONFIG, random.Random(s))
            for s in range(4)
        ]
        before = [evaluator.evaluate(individual) for individual in individuals]
        assert task.simulator._plans and task.simulator._streams

        task_copy = pickle.loads(pickle.dumps(task))
        assert task_copy.simulator._plans == {}
        assert task_copy.simulator._streams == {}
        model, params = individuals[0].phenotype(
            task.state_names, task.var_order
        )
        assert outcome(task_copy.error_stream(model, params)) == outcome(
            task.error_stream(model, params)
        )
        assert task_copy.simulator._plans and task_copy.simulator._streams

        evaluator_copy = pickle.loads(pickle.dumps(evaluator))
        evaluator_copy.reset()
        assert [evaluator_copy.evaluate(i) for i in individuals] == before

    def test_station_kernel_dropped_from_model_pickle(self):
        model = chain_model("a * X0")
        kernel = model.station_kernel()
        copy = pickle.loads(pickle.dumps(model))
        assert copy._station is None
        assert copy.station_kernel() is kernel


class TestRunLevel:
    def test_checkpoint_of_network_run_resumes_bit_identically(self, tmp_path):
        engine = network_engine(checkpoint_every=1)
        full = engine.run(seed=5)

        class Crash(RuntimeError):
            pass

        def crash(generation, record):
            if generation == 1:
                raise Crash

        path = tmp_path / "network.ckpt"
        with pytest.raises(Crash):
            engine.run(seed=5, checkpoint_path=path, progress=crash)
        assert load_checkpoint(path).generation == 1
        resumed = engine.run(resume_from=path)
        assert resumed.best_fitness == full.best_fitness
        assert histories(resumed) == histories(full)
        assert resumed.stats.evaluations == full.stats.evaluations
        assert resumed.stats.steps_evaluated == full.stats.steps_evaluated

    def test_two_workers_equal_serial(self):
        serial = run_many(network_engine(max_generations=2), 2, base_seed=3)
        parallel = run_many_parallel(
            network_engine(max_generations=2, n_workers=2),
            2,
            base_seed=3,
            max_workers=2,
        )
        assert [r.best_fitness for r in parallel] == [
            r.best_fitness for r in serial
        ]
        assert [histories(r) for r in parallel] == [
            histories(r) for r in serial
        ]
        assert [r.stats.evaluations for r in parallel] == [
            r.stats.evaluations for r in serial
        ]
