"""Resource governance for GMR runs (operability, tier 4).

A long evolutionary campaign must be *boundable* (stop cleanly when a
wall-clock, evaluation, or generation budget runs out), *interruptible*
(finish the in-flight generation on SIGTERM/SIGINT instead of losing
work since the last snapshot), and *observable while idle-looking*
(periodic heartbeats so a stalled campaign is distinguishable from a
slow one).  This module supplies all three as one engine attachment:

* :class:`CampaignBudget` -- declarative resource ceilings, consulted at
  generation boundaries only.  Stop points are therefore deterministic
  decision points: a budget stop leaves exactly the state a cadence
  checkpoint at that generation would, so resuming the stopped run with
  a larger budget continues bit-identically with the uninterrupted run.
* :class:`RunGovernor` -- the per-engine policy object.  It owns the
  budget, the cooperative stop flag that signal handlers set, and the
  heartbeat cadence.  The governor never reads the clock itself: the
  engine passes its own elapsed time in, so this module stays free of
  wall-clock reads (the determinism sanitizer's C002 rule) and the
  budget arithmetic is pure.

Stop reasons are short machine-readable strings (``budget:generations``,
``signal:SIGTERM``) stamped into the trace (``run_stop`` events), the
final checkpoint envelope, and the partial-but-valid
:class:`~repro.gp.engine.RunResult` / :class:`~repro.gp.resilience.
CampaignResult`.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer


class GovernorConfigError(ValueError):
    """Raised for inconsistent budget/governor configurations."""


#: Canonical stop reasons for budget-bounded stops.  Signal stops use
#: ``signal:<NAME>`` (e.g. ``signal:SIGTERM``).
STOP_WALL_CLOCK = "budget:wall_clock"
STOP_EVALUATIONS = "budget:evaluations"
STOP_GENERATIONS = "budget:generations"


@dataclass(frozen=True)
class CampaignBudget:
    """Resource ceilings for one run, checked at generation boundaries.

    Attributes:
        max_wall_clock: Stop once the run's elapsed wall-clock (summed
            across resumed segments, like ``RunCheckpoint.elapsed``)
            reaches this many seconds, or None for unlimited.
        max_evaluations: Stop once the evaluator has performed this many
            fitness evaluations, or None.
        max_generations: Stop once this many generations have completed
            (generation 0, the seed cohort, counts), or None.

    All ceilings are inclusive *floors for stopping*: the generation
    during which a ceiling is crossed still completes -- budgets never
    interrupt work mid-generation, which is what keeps stop points
    deterministic and resumable.
    """

    max_wall_clock: float | None = None
    max_evaluations: int | None = None
    max_generations: int | None = None

    def __post_init__(self) -> None:
        if self.max_wall_clock is not None and self.max_wall_clock <= 0:
            raise GovernorConfigError("max_wall_clock must be positive or None")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise GovernorConfigError("max_evaluations must be >= 1 or None")
        if self.max_generations is not None and self.max_generations < 0:
            raise GovernorConfigError("max_generations must be >= 0 or None")

    @property
    def unlimited(self) -> bool:
        return (
            self.max_wall_clock is None
            and self.max_evaluations is None
            and self.max_generations is None
        )

    def to_json(self) -> dict:
        """JSON-serialisable form (None ceilings are omitted).

        The serve layer stamps this into job specs, so a job's budget
        participates in its content-addressed id and survives server
        restarts alongside the rest of the spec.
        """
        payload: dict = {}
        if self.max_wall_clock is not None:
            payload["max_wall_clock"] = self.max_wall_clock
        if self.max_evaluations is not None:
            payload["max_evaluations"] = self.max_evaluations
        if self.max_generations is not None:
            payload["max_generations"] = self.max_generations
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignBudget":
        """Inverse of :meth:`to_json`; unknown keys fail loudly."""
        known = ("max_wall_clock", "max_evaluations", "max_generations")
        unknown = sorted(key for key in payload if key not in known)
        if unknown:
            raise GovernorConfigError(
                f"unknown budget field(s) {unknown}; known: {list(known)}"
            )
        return cls(**payload)

    def exceeded(
        self, *, generation: int, evaluations: int, elapsed: float
    ) -> str | None:
        """The stop reason this state triggers, or None while in budget.

        Deterministic ceilings (generations, evaluations) are consulted
        before the wall clock, so two hosts crossing several ceilings in
        the same generation report the same reason.
        """
        if (
            self.max_generations is not None
            and generation >= self.max_generations
        ):
            return STOP_GENERATIONS
        if (
            self.max_evaluations is not None
            and evaluations >= self.max_evaluations
        ):
            return STOP_EVALUATIONS
        if (
            self.max_wall_clock is not None
            and elapsed >= self.max_wall_clock
        ):
            return STOP_WALL_CLOCK
        return None


#: Signals the governor turns into cooperative stops.
_GOVERNED_SIGNALS = ("SIGTERM", "SIGINT")


@dataclass
class RunGovernor:
    """Budgets, cooperative shutdown, and heartbeats for one engine.

    Attach as ``engine.governor``; :meth:`~repro.gp.engine.GMREngine.run`
    then consults :meth:`check` after every completed generation and
    stops cleanly (final checkpoint, ``run_stop`` trace event, partial
    ``RunResult``) when a reason comes back.

    Attributes:
        budget: Resource ceilings, or None for signal handling only.
        handle_signals: Install SIGTERM/SIGINT handlers for the duration
            of a run (:meth:`install`); the handler sets the stop flag
            and the engine finishes the in-flight generation before
            checkpointing and returning.  Off by default so library use
            never hijacks the host application's handlers; the signal
            context restores the previous handlers on exit either way.
        heartbeat_every: Emit a ``heartbeat`` trace event every this
            many generations (0 disables heartbeats).

    The stop flag is runtime state: it is deliberately dropped when the
    governor is pickled (e.g. inside an engine shipped to a pool
    worker), so a parent's pending stop never leaks into a fresh
    process, and it survives *within* a process across runs -- a signal
    received between campaign runs still stops the next one before it
    wastes a generation.
    """

    budget: CampaignBudget | None = None
    handle_signals: bool = False
    heartbeat_every: int = 1
    _stop_reason: str | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.heartbeat_every < 0:
            raise GovernorConfigError("heartbeat_every must be >= 0")
        if self.budget is not None and self.budget.unlimited:
            self.budget = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_stop_reason"] = None
        return state

    @property
    def stop_requested(self) -> str | None:
        """The pending cooperative stop reason, if any."""
        return self._stop_reason

    def request_stop(self, reason: str) -> None:
        """Set the cooperative stop flag (first reason wins)."""
        if self._stop_reason is None:
            self._stop_reason = reason

    def reset(self) -> None:
        """Clear the cooperative stop flag (e.g. before a fresh run)."""
        self._stop_reason = None

    def check(
        self, *, generation: int, evaluations: int, elapsed: float
    ) -> str | None:
        """Stop reason at this generation boundary, or None to go on.

        A pending cooperative stop (signal) wins over budget ceilings,
        so the reported reason names what actually ended the run.
        """
        if self._stop_reason is not None:
            return self._stop_reason
        if self.budget is not None:
            return self.budget.exceeded(
                generation=generation,
                evaluations=evaluations,
                elapsed=elapsed,
            )
        return None

    def heartbeat(
        self,
        tracer: "Tracer | None",
        *,
        generation: int,
        evaluations: int,
        elapsed: float,
    ) -> None:
        """Emit one ``heartbeat`` event if the cadence says so."""
        if (
            tracer is None
            or self.heartbeat_every <= 0
            or generation % self.heartbeat_every != 0
        ):
            return
        tracer.point(
            "heartbeat",
            generation=generation,
            evaluations=evaluations,
            elapsed=elapsed,
        )

    @contextmanager
    def install(self) -> Iterator["RunGovernor"]:
        """Install cooperative SIGTERM/SIGINT handlers for a run.

        The handlers only set the stop flag -- no exception is raised
        into the engine loop, so the in-flight generation completes and
        the normal stop path (final checkpoint, ``run_stop`` event,
        partial result) runs.  Previous handlers are restored on exit.
        A no-op when ``handle_signals`` is off or when called outside
        the main thread (``signal.signal`` raises there; worker
        processes keep their pool semantics).
        """
        if not self.handle_signals:
            yield self
            return

        def _handler(signum: int, frame: object) -> None:
            self.request_stop(f"signal:{signal.Signals(signum).name}")

        previous: dict[int, object] = {}
        for name in _GOVERNED_SIGNALS:
            signum = getattr(signal, name, None)
            if signum is None:  # pragma: no cover - platform-specific
                continue
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                continue
        try:
            yield self
        finally:
            for signum, handler in previous.items():
                try:
                    signal.signal(signum, handler)  # type: ignore[arg-type]
                except (ValueError, OSError):  # pragma: no cover
                    pass
