"""River-system simulation: biology advected through the flow network.

Appendix A of the paper describes the coupling that this module
implements: the *hydrological process* (known, static) moves water bodies
between stations, and the *biological process* (the model under revision)
updates plankton inside each water body.  Each day, the state at a
non-headwater station is a mass-balance blend (equation (9)) of

* the locally retained water, advanced one day by the biological model;
* water arriving from upstream stations (lagged by segment travel time),
  carrying the upstream plankton state;
* rainfall runoff, which carries no plankton (dilution).

Headwater stations are boundary conditions: their plankton series come
from observations.  Because every simulated parcel is anchored to an
upstream observation a few days back, candidate models are judged on how
well they evolve plankton over the true residence time of the river --
not on decade-long free-running stability.

The mixing schedule (who arrives where, when, with what weight) is
*model-independent*: it is precomputed once from the flow series, and
bound once per simulator into a mixing plan (plain-Python fraction
lists, lags, boundary columns and initial states) that every candidate
evaluation reuses.  The compiled error stream also generates the day
loop once per network: it unrolls the stations' blends, NaN checks and
clamps around one call per station and day of a structure's station
kernel (:class:`repro.expr.compile.CompiledStationKernel`), whose
driver-dependent work is hoisted over :data:`BLOCK` days at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec, SimulationDiverged
from repro.dynamics.system import ProcessModel
from repro.expr.compile import CompiledStationKernel
from repro.river.hydrology import delay
from repro.river.network import RiverNetwork

#: Days of driver rows whose station-kernel frontier is hoisted at once.
BLOCK = 128


class RiverSimulationError(ValueError):
    """Raised for inconsistent river-simulation inputs."""


@dataclass(frozen=True)
class UpstreamSource:
    """One effective upstream contribution to a station.

    Virtual (confluence) stations are collapsed: a source is always a
    measuring station, with the total lag accumulated along the path.
    """

    station: str
    lag_days: int


@dataclass
class MixingSchedule:
    """Precomputed daily mass-balance weights for one station.

    For station B on day t, the new state is::

        state_B(t+1) = retained_frac[t] * bio_step(state_B(t))
                     + sum_k source_frac[k][t] * state_{src_k}(t - lag_k)
                     + runoff_frac[t] * 0        (plankton-free rain water)

    The fractions sum to one; they follow from equation (9)'s flow mass
    balance, so high-flow (monsoon) days replace the local water faster.
    """

    station: str
    sources: list[UpstreamSource]
    retained_frac: np.ndarray
    source_frac: list[np.ndarray]
    runoff_frac: np.ndarray

    def validate(self) -> None:
        """Mass balance: retained + source + runoff fractions sum to one.

        Delegates to the lint pass's S005 check so a failure names the
        station, the worst day's total, and how many days are off.
        """
        from repro.lint.system_rules import check_mixing_fractions

        total = self.retained_frac + self.runoff_frac
        for frac in self.source_frac:
            total = total + frac
        findings = check_mixing_fractions(self.station, total)
        if findings:
            raise RiverSimulationError(
                "; ".join(finding.format() for finding in findings)
            )


def collapse_upstream(
    network: RiverNetwork, station: str
) -> list[UpstreamSource]:
    """Effective measuring-station sources of ``station``.

    Walks through virtual stations, accumulating segment lags, and returns
    one :class:`UpstreamSource` per contributing measuring station.
    """
    sources: list[UpstreamSource] = []

    def walk(name: str, lag: int) -> None:
        for upstream, segment_lag in network.upstream_of(name):
            total = lag + segment_lag
            if network.station(upstream).is_virtual:
                walk(upstream, total)
            else:
                sources.append(UpstreamSource(upstream, total))

    walk(station, 0)
    return sources


def build_mixing_schedules(
    network: RiverNetwork,
    flows: Mapping[str, np.ndarray],
    runoff: Mapping[str, np.ndarray],
) -> dict[str, MixingSchedule]:
    """Precompute the daily mixing weights for all non-headwater stations.

    Follows equation (9): the water at B on day t+1 is composed of
    ``r_B * F_B(t)`` retained water, the lagged upstream discharges
    ``(1 - r_A) * F_A(t - lag)``, and the local runoff.  Fractions are the
    components normalised by their sum.
    """
    schedules: dict[str, MixingSchedule] = {}
    for name in network.topological_order():
        station = network.station(name)
        if station.is_virtual or station.headwater:
            continue
        sources = collapse_upstream(network, name)
        flow = np.asarray(flows[name], dtype=float)
        horizon = len(flow)
        retained = np.empty(horizon)
        retained[0] = station.retention * flow[0]
        retained[1:] = station.retention * flow[:-1]
        source_parts: list[np.ndarray] = []
        for source in sources:
            source_station = network.station(source.station)
            upstream_flow = np.asarray(flows[source.station], dtype=float)
            passed = (1.0 - source_station.retention) * delay(
                upstream_flow, source.lag_days
            )
            source_parts.append(passed)
        runoff_part = np.asarray(
            runoff.get(name, np.zeros(horizon)), dtype=float
        )
        total = retained + runoff_part + sum(source_parts)
        total = np.maximum(total, 1e-9)
        schedule = MixingSchedule(
            station=name,
            sources=sources,
            retained_frac=retained / total,
            source_frac=[part / total for part in source_parts],
            runoff_frac=runoff_part / total,
        )
        schedule.validate()
        schedules[name] = schedule
    return schedules


@dataclass
class _StationPlan:
    """One biological station's share of a :class:`_MixingPlan`.

    ``sources`` holds ``(fractions, lag, columns, upstream)`` per
    upstream source: a headwater's boundary series per state in
    ``columns`` (``upstream`` None), or the position of a simulated
    station in the plan's order in ``upstream`` (``columns`` None).
    """

    name: str
    rows: list[tuple[float, ...]]
    retained: list[float]
    sources: list[tuple[list[float], int, tuple[list[float], ...] | None, int | None]]


@dataclass
class _MixingPlan:
    """The model-independent inputs of a simulation, bound once per
    simulator and state-name tuple."""

    initial: list[tuple[float, ...]]
    stations: list[_StationPlan]


@dataclass
class RiverSystemSimulator:
    """Simulates a biological model across the whole river network.

    Attributes:
        network: The river network (stations, segments, retention).
        schedules: Mixing schedules from :func:`build_mixing_schedules`.
        drivers: Per-station driver tables (identical column order).
        boundary: Per-headwater-station boundary plankton series, keyed by
            station name then state name (e.g. ``{"S6": {"BPhy": ..}}``).
        initial_states: Initial plankton state per non-headwater station.
        clamp: State clamping band applied after every blend.
        dt: Biological step size (days).

    The inputs are bound into cached mixing plans on first use, so they
    must not be mutated afterwards; the caches are not pickled.
    """

    network: RiverNetwork
    schedules: dict[str, MixingSchedule]
    drivers: dict[str, DriverTable]
    boundary: dict[str, dict[str, np.ndarray]]
    initial_states: dict[str, tuple[float, ...]]
    clamp: ClampSpec = field(default_factory=ClampSpec)
    dt: float = 1.0

    def __post_init__(self) -> None:
        self._order = [
            name
            for name in self.network.topological_order()
            if not self.network.station(name).is_virtual
            and not self.network.station(name).headwater
        ]
        horizons: dict[str, int] = {}
        for name, table in self.drivers.items():
            horizons[f"drivers at station {name!r}"] = len(table)
        for station, series_map in self.boundary.items():
            for state, series in series_map.items():
                horizons[f"boundary {state!r} at station {station!r}"] = len(
                    series
                )
        if len(set(horizons.values())) != 1:
            details = ", ".join(
                f"{who}: {days} days" for who, days in sorted(horizons.items())
            )
            raise RiverSimulationError(
                f"driver/boundary horizons differ: {details}"
            )
        self.horizon = next(iter(horizons.values()))
        columns = {table.names for table in self.drivers.values()}
        if len(columns) > 1:
            raise RiverSimulationError(
                f"driver tables differ in columns: {sorted(columns)}"
            )
        self._plans: dict[tuple[str, ...], _MixingPlan] = {}
        self._streams: dict[tuple, Callable] = {}

    def __getstate__(self) -> dict:
        # Plans are rebuilt on demand, and network streams are
        # exec-generated closures that cannot be pickled.
        state = dict(self.__dict__)
        del state["_plans"], state["_streams"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plans = {}
        self._streams = {}

    @property
    def biological_stations(self) -> list[str]:
        """Stations where the biological model runs (non-headwater)."""
        return list(self._order)

    def run(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> dict[str, np.ndarray]:
        """Simulate and return full per-station state trajectories.

        Returns arrays of shape ``(horizon, n_states)`` per biological
        station.

        Raises:
            SimulationDiverged: If any state becomes NaN.
        """
        trajectories = {
            name: np.empty((self.horizon, len(model.state_names)))
            for name in self._order
        }
        for __ in self.steps(model, params, trajectories, use_compiled):
            pass
        return trajectories

    def steps(
        self,
        model: ProcessModel,
        params: Sequence[float],
        trajectories: dict[str, np.ndarray] | None = None,
        use_compiled: bool = True,
    ) -> Iterator[dict[str, tuple[float, ...]]]:
        """Advance the whole network one day at a time.

        Yields the per-station state after each day; optionally records
        into ``trajectories``.  This is the incremental interface behind
        :meth:`run` and the interpreter arm of :meth:`RiverTask.
        error_stream`; the compiled error stream runs the generated loop
        of :meth:`network_errors` instead, with identical results.

        The loop body runs against the plain-Python lists of the cached
        mixing plan -- fractions, boundary columns and driver rows
        (:meth:`DriverTable.rows`) all hold Python floats, so every state
        is one too -- stepping one station per call of ``model``'s step
        function.
        """
        n_states = len(model.state_names)
        step = model.compiled() if use_compiled else model.interpret_step
        params = tuple(params)
        dt = self.dt
        clamp_min, clamp_max = self.clamp.minimum, self.clamp.maximum
        mixing = self._mixing_plan(model.state_names)
        history = [[initial] for initial in mixing.initial]
        plan = [
            (
                station.name,
                station.rows,
                station.retained,
                [
                    (
                        frac,
                        lag,
                        columns,
                        None if upstream is None else history[upstream],
                    )
                    for frac, lag, columns, upstream in station.sources
                ],
                own_history,
            )
            for station, own_history in zip(mixing.stations, history)
        ]

        state_range = range(n_states)
        for t in range(self.horizon):
            snapshot: dict[str, tuple[float, ...]] = {}
            for name, rows, retained, sources, own_history in plan:
                current = own_history[t]
                derivatives = step(params, rows[t], current)
                r = retained[t]
                blended = [
                    r * (current[s] + dt * derivatives[s]) for s in state_range
                ]
                for frac, lag, columns, upstream_history in sources:
                    f = frac[t]
                    origin = t - lag
                    if origin < 0:
                        origin = 0
                    if columns is None:
                        upstream = upstream_history[origin + 1]
                        for s in state_range:
                            blended[s] += f * upstream[s]
                    else:
                        for s in state_range:
                            blended[s] += f * columns[s][origin]
                # Runoff fraction contributes zero plankton.
                for s in state_range:
                    value = blended[s]
                    if value != value:  # NaN
                        raise SimulationDiverged(
                            f"state {model.state_names[s]} at {name} is NaN"
                        )
                    if value < clamp_min:
                        blended[s] = clamp_min
                    elif value > clamp_max:
                        blended[s] = clamp_max
                new_state = tuple(blended)
                own_history.append(new_state)
                snapshot[name] = new_state
                if trajectories is not None:
                    trajectories[name][t] = new_state
            yield snapshot

    def _mixing_plan(self, state_names: tuple[str, ...]) -> _MixingPlan:
        """The cached mixing plan for models over ``state_names``.

        Raises the input errors a simulation reports, in the order
        :meth:`steps` has always reported them: a malformed initial
        state first, then a missing boundary series or station.
        """
        plan = self._plans.get(state_names)
        if plan is not None:
            return plan
        n_states = len(state_names)
        initial_states = []
        for name in self._order:
            initial = tuple(float(v) for v in self.initial_states[name])
            if len(initial) != n_states:
                raise RiverSimulationError(
                    f"initial state at station {name!r} has {len(initial)} "
                    f"entries for {n_states} state(s) {list(state_names)}"
                )
            initial_states.append(initial)
        positions = {name: k for k, name in enumerate(self._order)}
        stations = []
        for name in self._order:
            schedule = self.schedules[name]
            sources: list = []
            for k, source in enumerate(schedule.sources):
                frac = schedule.source_frac[k].tolist()
                if source.station in self.boundary:
                    series_map = self.boundary[source.station]
                    columns = tuple(
                        np.asarray(series_map[state], dtype=float).tolist()
                        for state in state_names
                    )
                    sources.append((frac, source.lag_days, columns, None))
                else:
                    sources.append(
                        (frac, source.lag_days, None, positions[source.station])
                    )
            stations.append(
                _StationPlan(
                    name=name,
                    rows=self.drivers[name].rows(),
                    retained=schedule.retained_frac.tolist(),
                    sources=sources,
                )
            )
        plan = _MixingPlan(initial_states, stations)
        self._plans[state_names] = plan
        return plan

    def network_errors(
        self,
        model: ProcessModel,
        params: Sequence[float],
        target_station: str,
        target_index: int,
        observed: Sequence[float],
    ) -> Iterator[float]:
        """Per-day squared errors of state ``target_index`` at
        ``target_station`` against ``observed`` (Python floats, one per
        day), through ``model``'s station kernel.

        Bit-identical, day by day and raise by raise, to the errors of
        the compiled :meth:`steps` stream: the generated loop performs
        the blend, NaN check and clamp of every station in the same
        operation order, then the target's ``isfinite`` check.  The
        model must read no driver column past the tables' width.
        """
        kernel = model.station_kernel()
        params = tuple(params)
        plan = self._mixing_plan(model.state_names)
        key = (model.state_names, target_station, target_index)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._bind_stream(plan, *key)
            self._streams[key] = stream
        hoist, station = kernel.make(params)
        yield from stream(hoist, station, observed)

    def _bind_stream(
        self,
        plan: _MixingPlan,
        state_names: tuple[str, ...],
        target_station: str,
        target_index: int,
    ) -> Callable:
        """Generate and bind the network's day loop (see
        :func:`_network_source`).

        The loop hoists over every station's driver table stacked as
        ``(n_columns, n_stations, horizon)``.  Per upstream lag it reads
        one index list, ``max(t - lag, 0) + 1`` per day, into both
        upstream histories (whose item 0 is the initial state) and
        headwater columns (bound behind one padding item).
        """
        source = _network_source(
            plan, state_names, self._order.index(target_station), target_index
        )
        namespace = {
            "_isfinite": math.isfinite,
            "_Diverged": SimulationDiverged,
        }
        exec(  # noqa: S102 - generated from the network's own plan
            compile(source, filename="<repro:network_stream>", mode="exec"),
            namespace,
        )
        boundary = [
            column[:1] + column
            for station in plan.stations
            for __, __, columns, __ in station.sources
            if columns is not None
            for column in columns
        ]
        indices = [
            [max(t - lag, 0) + 1 for t in range(self.horizon)]
            for lag in _lags(plan)
        ]
        return namespace["_bind"](
            [station.retained for station in plan.stations],
            [frac for station in plan.stations for frac, *__ in station.sources],
            boundary,
            indices,
            plan.initial,
            np.stack(
                [self.drivers[name].values.T for name in self._order], axis=1
            ),
            self.horizon,
            self.dt,
            self.clamp.minimum,
            self.clamp.maximum,
        )


def _lags(plan: _MixingPlan) -> list[int]:
    """The distinct lags at which stations read their sources."""
    return sorted(
        {lag for station in plan.stations for __, lag, __, __ in station.sources}
    )


def _unpack(names: Sequence[str], value: str) -> list[str]:
    """A source line unpacking ``value`` into ``names`` (none if empty)."""
    if not names:
        return []
    return [f"{''.join(f'{name}, ' for name in names)}= {value}"]


def _network_source(
    plan: _MixingPlan,
    state_names: tuple[str, ...],
    target: int,
    target_index: int,
) -> str:
    """Source of a network's generated day loop.

    ``_bind(R, Q, C, O, X, D, T, dt, lo_, hi_)`` binds the plan
    (retained and source fractions, padded boundary columns, source
    indices per lag, initial states, stacked drivers) and returns the
    generator ``_stream(hoist, station, OBS)``.
    Station ``k``'s state ``s`` lives in local ``x{k}_{s}``, and
    stations read as upstream sources keep per-state histories
    ``H{k}_{s}``.  Per day, each station runs :meth:`RiverSystemSimulator.
    steps`'s operations in order (step, blend, sources, NaN check,
    clamp); after the last station the target's prediction is checked
    and its squared error yielded.
    """
    states = range(len(state_names))
    stations = range(len(plan.stations))
    feeding = {
        upstream
        for station in plan.stations
        for __, __, __, upstream in station.sources
        if upstream is not None
    }
    fractions = []
    boundary = []
    for k, station in enumerate(plan.stations):
        for j, (__, __, columns, __) in enumerate(station.sources):
            fractions.append(f"Q{k}_{j}")
            if columns is not None:
                boundary.extend(f"C{k}_{j}_{s}" for s in states)
    lags = [f"O{lag}" for lag in _lags(plan)]
    body = [
        "def _bind(R, Q, C, O, X, D, T, dt, lo_, hi_):",
        *(f"    {line}" for line in _unpack([f"R{k}" for k in stations], "R")),
        *(f"    {line}" for line in _unpack(fractions, "Q")),
        *(f"    {line}" for line in _unpack(boundary, "C")),
        *(f"    {line}" for line in _unpack(lags, "O")),
        "    def _stream(hoist, station, OBS):",
    ]
    inner = []
    for k in stations:
        inner.extend(_unpack([f"x{k}_{s}" for s in states], f"X[{k}]"))
        if k in feeding:
            inner.extend(f"H{k}_{s} = [x{k}_{s}]" for s in states)
    blocks = _unpack([f"F{k}" for k in stations], "hoist(D[:, :, lo:hi])")
    frontier = ", ".join(f"f{k}" for k in stations)
    rows = "".join(f", F{k}" for k in stations)
    inner.extend(
        [
            f"for lo in range(0, T, {BLOCK}):",
            f"    hi = lo + {BLOCK}",
            "    if hi > T:",
            "        hi = T",
            *(f"    {line}" for line in blocks),
            f"    for t, {frontier} in zip(range(lo, hi){rows}):",
        ]
    )
    day = []
    for k, station in enumerate(plan.stations):
        # The blend reads state s only to compute state s, so it
        # updates x{k}_{s} in place.
        x = [f"x{k}_{s}" for s in states]
        step = f"station(f{k}, {', '.join(x)})"
        day.extend(_unpack([f"d{s}" for s in states], step))
        day.append(f"r = R{k}[t]")
        day.extend(f"{x[s]} = r * ({x[s]} + dt * d{s})" for s in states)
        for j, (__, lag, columns, upstream) in enumerate(station.sources):
            day.append(f"f = Q{k}_{j}[t]")
            day.append(f"o = O{lag}[t]")
            for s in states:
                read = f"H{upstream}_{s}" if columns is None else f"C{k}_{j}_{s}"
                day.append(f"{x[s]} += f * {read}[o]")
        for s in states:
            # One chained comparison on the common path; NaN fails it
            # and is told apart from a clamp inside.
            message = f"state {state_names[s]} at {station.name} is NaN"
            day.append(f"if not lo_ <= {x[s]} <= hi_:")
            day.append(f"    if {x[s]} != {x[s]}:")
            day.append(f"        raise _Diverged({message!r})")
            day.append(f"    {x[s]} = lo_ if {x[s]} < lo_ else hi_")
        if k in feeding:
            day.extend(f"H{k}_{s}.append({x[s]})" for s in states)
    predicted = f"x{target}_{target_index}"
    day.append(f"if not _isfinite({predicted}):")
    day.append("    raise _Diverged('prediction is not finite')")
    day.append(f"e = {predicted} - OBS[t]")
    day.append("yield e * e")
    inner.extend(f"        {line}" for line in day)
    body.extend(f"        {line}" for line in inner)
    body.append("    return _stream")
    return "\n".join(body)


@dataclass
class RiverTask:
    """Fit the biological process to observations at a target station.

    Duck-type compatible with :class:`repro.dynamics.task.ModelingTask`
    (``state_names``, ``var_order``, ``n_cases``, ``error_stream``,
    ``rmse``, ``mae``, ``trajectory``), so it plugs into the GMR fitness
    evaluator and all calibration baselines unchanged.  It lacks the
    plain-ODE surface static triage reads, so the evaluator never
    triages it; its compiled error stream runs the network's generated
    day loop over the candidate's station kernel, which the evaluator's
    compile phase obtains through :meth:`compiled_kernel`.
    """

    simulator: RiverSystemSimulator
    observed: np.ndarray
    target_station: str
    target_state: str
    state_names: tuple[str, ...]
    var_order: tuple[str, ...]

    def __post_init__(self) -> None:
        self.observed = np.asarray(self.observed, dtype=float)
        if len(self.observed) != self.simulator.horizon:
            raise RiverSimulationError(
                f"{len(self.observed)} observations for horizon "
                f"{self.simulator.horizon}"
            )
        if self.target_station not in self.simulator.biological_stations:
            raise RiverSimulationError(
                f"target {self.target_station!r} is not a simulated station"
            )
        self._target_index = self.state_names.index(self.target_state)
        # Both error streams read Python floats: a NumPy scalar
        # observation would make every error a NumPy scalar.
        self._observed_floats = self.observed.tolist()

    @property
    def n_cases(self) -> int:
        return self.simulator.horizon

    def error_stream(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> Iterator[float]:
        """Per-day squared error at the target station (for Algorithm 1).

        Compiled, the errors come from the network's generated day loop
        over ``model``'s station kernel
        (:meth:`RiverSystemSimulator.network_errors`); with
        ``use_compiled=False`` (Figure 10's no-RC arm) from the
        interpreter through :meth:`RiverSystemSimulator.steps`.  Both
        yield the same values and raise the same errors.
        """
        if use_compiled:
            return self.simulator.network_errors(
                model, params, self.target_station, self._target_index,
                self._observed_floats,
            )
        return self.stepped_errors(model, params, use_compiled=False)

    def stepped_errors(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> Iterator[float]:
        """:meth:`error_stream` through :meth:`RiverSystemSimulator.steps`:
        its interpreter arm, and with ``use_compiled`` the reference the
        compiled network stream is tested against."""
        index = self._target_index
        for snapshot, target in zip(
            self.simulator.steps(model, params, use_compiled=use_compiled),
            self._observed_floats,
        ):
            predicted = snapshot[self.target_station][index]
            if not math.isfinite(predicted):
                raise SimulationDiverged("prediction is not finite")
            error = predicted - target
            yield error * error

    def compiled_kernel(self, model: ProcessModel) -> CompiledStationKernel:
        """The kernel the compiled :meth:`error_stream` runs: ``model``'s
        station kernel (the fitness evaluator's compile phase)."""
        return model.station_kernel()

    def rmse(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> float:
        from repro.dynamics.task import stream_rmse

        return stream_rmse(self.error_stream(model, params, use_compiled))

    def mae(self, model: ProcessModel, params: Sequence[float]) -> float:
        from repro.dynamics.task import BAD_FITNESS

        series = self.trajectory(model, params)
        if series is None:
            return BAD_FITNESS
        return float(np.mean(np.abs(series - self.observed)))

    def trajectory(
        self, model: ProcessModel, params: Sequence[float]
    ) -> np.ndarray | None:
        """The predicted target series; None on divergence."""
        try:
            trajectories = self.simulator.run(model, params)
        except (SimulationDiverged, OverflowError):
            return None
        series = trajectories[self.target_station][:, self._target_index]
        if not np.all(np.isfinite(series)):
            return None
        return series
