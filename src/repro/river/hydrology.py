"""The hydrological process: flow mass balance and attribute routing.

Implements Appendix A's flow model (equation (9)).  With water flowing
from station A to station B over travel time ``Delta``::

    F_B(t + Delta) = r_B * F_B(t) + (1 - r_A) * F_A(t) + R_B(t + Delta)

where ``r_S`` is the retention ratio at station ``S`` and ``R_B`` is the
rainfall runoff entering at B.  At a confluence (virtual station) the
incoming water bodies are merged and their attributes (nutrients,
temperature, ...) are combined as a flow-weighted average.

The hydrological process is *static* in this work (the paper does the
same): it supplies each biological process with the water-body attributes
at its station, and is also used by the synthetic dataset generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.river.network import RiverNetwork


class HydrologyError(ValueError):
    """Raised for inconsistent hydrological inputs."""


@dataclass
class HydrologicalProcess:
    """Routes flows and water-body attributes through a river network."""

    network: RiverNetwork

    def route_flows(
        self,
        headwater_flows: Mapping[str, np.ndarray],
        runoff: Mapping[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Compute the flow series at every station from boundary inputs.

        Args:
            headwater_flows: Flow series (m^3/s) for each headwater station.
            runoff: Optional rainfall-runoff series per station (the
                ``R_B`` term); stations without an entry receive zero.

        Returns:
            Flow series per station, all of the common input length.
        """
        horizon = self._horizon(headwater_flows)
        runoff = runoff or {}
        flows: dict[str, np.ndarray] = {}
        for name in self.network.topological_order():
            station = self.network.station(name)
            station_runoff = self._series(runoff.get(name), horizon)
            if station.headwater:
                if name not in headwater_flows:
                    raise HydrologyError(
                        f"headwater {name} has no boundary flow series"
                    )
                flows[name] = (
                    np.asarray(headwater_flows[name], dtype=float) + station_runoff
                )
                continue
            flow = np.zeros(horizon)
            inflow = np.zeros(horizon)
            for upstream, lag in self.network.upstream_of(name):
                upstream_station = self.network.station(upstream)
                passed = (1.0 - upstream_station.retention) * flows[upstream]
                inflow += delay(passed, lag)
            retention = station.retention
            previous = 0.0
            for t in range(horizon):
                previous = retention * previous + inflow[t] + station_runoff[t]
                flow[t] = previous
            flows[name] = flow
        return flows

    def route_attribute(
        self,
        flows: Mapping[str, np.ndarray],
        local_values: Mapping[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Propagate one water-body attribute downstream.

        Measuring stations contribute their locally observed series;
        virtual stations receive the flow-weighted average of the merged
        upstream water bodies, lagged by segment travel time (Appendix A).

        Args:
            flows: Flow series per station (from :meth:`route_flows`).
            local_values: Locally observed attribute series, one entry per
                measuring station.

        Returns:
            Attribute series per station, virtual stations included.
        """
        horizon = self._horizon(flows)
        values: dict[str, np.ndarray] = {}
        for name in self.network.topological_order():
            station = self.network.station(name)
            if not station.is_virtual:
                if name not in local_values:
                    raise HydrologyError(
                        f"measuring station {name} has no local attribute series"
                    )
                values[name] = np.asarray(local_values[name], dtype=float)
                continue
            weighted = np.zeros(horizon)
            weight = np.zeros(horizon)
            for upstream, lag in self.network.upstream_of(name):
                upstream_flow = delay(np.asarray(flows[upstream]), lag)
                upstream_value = delay(values[upstream], lag)
                weighted += upstream_flow * upstream_value
                weight += upstream_flow
            with np.errstate(invalid="ignore", divide="ignore"):
                merged = np.where(weight > 0, weighted / np.maximum(weight, 1e-12), 0.0)
            values[name] = merged
        return values

    def mixed_attribute_at(
        self,
        name: str,
        flows: Mapping[str, np.ndarray],
        values: Mapping[str, np.ndarray],
        retention_mixing: bool = True,
    ) -> np.ndarray:
        """The attribute of the water body *arriving* at station ``name``.

        Combines the lagged upstream water bodies by flow weight; with
        ``retention_mixing`` the retained fraction of the previous day's
        local water is mixed in, modelling side pools and non-laminar flow.
        """
        station = self.network.station(name)
        upstream = self.network.upstream_of(name)
        if not upstream:
            return np.asarray(values[name], dtype=float)
        horizon = self._horizon(flows)
        weighted = np.zeros(horizon)
        weight = np.zeros(horizon)
        for upstream_name, lag in upstream:
            upstream_station = self.network.station(upstream_name)
            flow = delay(
                (1.0 - upstream_station.retention)
                * np.asarray(flows[upstream_name], dtype=float),
                lag,
            )
            weighted += flow * delay(np.asarray(values[upstream_name]), lag)
            weight += flow
        with np.errstate(invalid="ignore", divide="ignore"):
            arriving = np.where(weight > 0, weighted / np.maximum(weight, 1e-12), 0.0)
        if retention_mixing and station.retention > 0:
            mixed = np.empty(horizon)
            previous = arriving[0]
            r = station.retention
            for t in range(horizon):
                previous = r * previous + (1.0 - r) * arriving[t]
                mixed[t] = previous
            return mixed
        return arriving

    @staticmethod
    def _series(values: np.ndarray | None, horizon: int) -> np.ndarray:
        if values is None:
            return np.zeros(horizon)
        values = np.asarray(values, dtype=float)
        if len(values) != horizon:
            raise HydrologyError(
                f"series length {len(values)} does not match horizon {horizon}"
            )
        return values

    @staticmethod
    def _horizon(series: Mapping[str, np.ndarray]) -> int:
        lengths = {len(values) for values in series.values()}
        if len(lengths) != 1:
            raise HydrologyError(f"input series differ in length: {sorted(lengths)}")
        return lengths.pop()


def delay(series: np.ndarray, lag: int) -> np.ndarray:
    """Shift a series forward in time by ``lag`` days (edge-padded)."""
    if lag <= 0:
        return series.copy()
    delayed = np.empty_like(series)
    delayed[:lag] = series[0]
    delayed[lag:] = series[:-lag]
    return delayed
