"""Durable job store for the campaign server (serve layer, tier 1).

A *job* is one model-revision campaign: a domain, a seed range, engine
configuration overrides, and an optional resource budget, wrapped in
scheduling metadata (tenant, priority).  The store gives jobs three
properties the rest of the serve layer builds on:

* **content-addressed ids** -- a job's id is the SHA-256 of its
  canonical spec JSON plus the registered domain's spec hash, so
  submitting the same work twice yields the same id and the second
  submission finds the first's directory instead of spawning a second
  campaign (idempotent submission).  Two specs differing in *any*
  field -- including tenant and priority -- are different jobs.
* **a typed state machine** -- ``queued -> running -> checkpointed /
  done / failed / stopped`` with an explicit transition table;
  off-table transitions raise :class:`JobStateError` instead of
  silently corrupting the lifecycle every consumer reasons over.
* **durable JSONL state** -- the spec is written once, atomically;
  every state transition appends one fsynced JSON line to
  ``state.jsonl``.  Recovery is a replay of that log (a torn final
  line from a killed writer is ignored, like a torn trace line), so a
  SIGKILLed server relaunches, reads the store, and knows exactly
  which jobs were in flight.  No SQLite, no daemons: plain files.

Layout under the store root::

    jobs/<job_id>/spec.json     the submitted JobSpec (immutable)
    jobs/<job_id>/state.jsonl   append-only state transitions
    jobs/<job_id>/ckpt/         campaign checkpoint dir (claimed while
                                running; see repro.gp.checkpoint)
    jobs/<job_id>/trace.jsonl   the job's obs trace (resume-stitched)
    jobs/<job_id>/result.json   summary written when the job completes
    submissions.jsonl           arrival order (one {"job_id"} per line)
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.gp.checkpoint import _atomic_write

# -- Job states ---------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
CHECKPOINTED = "checkpointed"
DONE = "done"
FAILED = "failed"
STOPPED = "stopped"

#: Every job state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, CHECKPOINTED, DONE, FAILED, STOPPED)

#: The typed state machine: state -> states reachable from it.
#: ``checkpointed`` means "interrupted with resumable on-disk state"
#: (server restart, graceful shutdown, budget pause); ``stopped`` means
#: an operator asked for the stop and must explicitly resume
#: (``stopped -> queued``).  ``done`` and ``failed`` are terminal.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    QUEUED: (RUNNING, STOPPED),
    RUNNING: (CHECKPOINTED, DONE, FAILED, STOPPED),
    CHECKPOINTED: (RUNNING, STOPPED),
    STOPPED: (QUEUED,),
    DONE: (),
    FAILED: (),
}

#: States a scheduler may pick up and run.
RUNNABLE_STATES = (QUEUED, CHECKPOINTED)

#: States no transition leaves.
TERMINAL_STATES = (DONE, FAILED)


class JobError(RuntimeError):
    """Base class for job-store failures."""


class JobSpecError(JobError, ValueError):
    """A job spec is malformed or inconsistent."""


class JobStateError(JobError):
    """An off-table state transition was requested."""


class JobNotFoundError(JobError, KeyError):
    """No job with the given id exists in the store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return f"no such job: {self.job_id}"


# -- Spec ---------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One campaign-as-a-service request.

    Attributes:
        domain: Registered domain name (``river``, ``sir``, ...); the
            runner resolves it through :meth:`GMREngine.for_domain`.
        n_runs: Number of independent seeded runs in the campaign.
        base_seed: First seed; the campaign covers
            ``base_seed .. base_seed + n_runs - 1``.
        mini: Use the domain's small conformance task instead of the
            standard one (cheap smoke campaigns, tests).
        tenant: Quota bucket the job is accounted against.
        priority: Larger runs earlier (FIFO within equal priority).
        config: :class:`~repro.gp.config.GMRConfig` overrides by field
            name (``population_size``, ``max_generations``, ...).
            ``checkpoint_every`` defaults to 1 so every job is
            restart-survivable at generation granularity.
        budget: :class:`~repro.gp.governor.CampaignBudget` fields
            (``max_wall_clock`` / ``max_evaluations`` /
            ``max_generations``); empty means unlimited.
        pace: Seconds slept after each completed generation.  A pacing
            knob for rate-limiting and for tests that must catch a job
            mid-run; sleeping never feeds back into the search, so a
            paced job's results are bit-identical to an unpaced one.
    """

    domain: str = "river"
    n_runs: int = 1
    base_seed: int = 0
    mini: bool = False
    tenant: str = "default"
    priority: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    budget: dict[str, Any] = field(default_factory=dict)
    pace: float = 0.0

    def __post_init__(self) -> None:
        if not self.domain or not isinstance(self.domain, str):
            raise JobSpecError("domain must be a non-empty string")
        if not isinstance(self.n_runs, int) or self.n_runs < 1:
            raise JobSpecError("n_runs must be an integer >= 1")
        if not isinstance(self.base_seed, int) or isinstance(
            self.base_seed, bool
        ):
            raise JobSpecError("base_seed must be an integer")
        if not self.tenant or not isinstance(self.tenant, str):
            raise JobSpecError("tenant must be a non-empty string")
        if not isinstance(self.priority, int) or isinstance(
            self.priority, bool
        ):
            raise JobSpecError("priority must be an integer")
        if not isinstance(self.config, dict):
            raise JobSpecError("config must be a dict of GMRConfig overrides")
        if not isinstance(self.budget, dict):
            raise JobSpecError("budget must be a dict of budget ceilings")
        if not isinstance(self.pace, (int, float)) or self.pace < 0:
            raise JobSpecError("pace must be a non-negative number")
        for key in self.config:
            if not isinstance(key, str):
                raise JobSpecError(f"config key {key!r} is not a string")
        # Fail at submission, not deep inside the runner: the canonical
        # form must serialise, and budget fields must be known.
        try:
            self.canonical_json()
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"spec is not JSON-serialisable: {exc}") from exc
        self.make_budget()
        self.make_config()

    # -- canonical form / identity ----------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "domain": self.domain,
            "n_runs": self.n_runs,
            "base_seed": self.base_seed,
            "mini": self.mini,
            "tenant": self.tenant,
            "priority": self.priority,
            "config": dict(self.config),
            "budget": dict(self.budget),
            "pace": self.pace,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {
            "domain", "n_runs", "base_seed", "mini", "tenant", "priority",
            "config", "budget", "pace",
        }
        unknown = sorted(key for key in payload if key not in known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s) {unknown}; "
                f"known: {sorted(known)}"
            )
        return cls(**payload)

    def canonical_json(self) -> str:
        """Byte-stable canonical serialisation (the hashing input)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )

    def job_id(self) -> str:
        """Content-addressed id: SHA-256 over spec + domain spec hash.

        Including the domain's registered spec hash means the same
        textual spec against a *changed* domain (different knowledge
        bundle) is a different job -- the serve-layer analogue of the
        checkpoint envelope's ``domain_spec_hash`` guard.
        """
        from repro.domains.registry import domain_spec_hash

        digest = hashlib.sha256()
        digest.update(self.canonical_json().encode("utf-8"))
        digest.update(b"\n")
        digest.update(domain_spec_hash(self.domain).encode("utf-8"))
        return digest.hexdigest()

    # -- engine construction helpers ---------------------------------

    def make_config(self):
        """Build the job's :class:`~repro.gp.config.GMRConfig`.

        Overrides are applied over a restart-survivable baseline
        (``checkpoint_every=1``, ``n_workers=1``: the scheduler
        multiplexes jobs, each job runs its seeds serially).
        """
        from repro.gp.config import ConfigError, GMRConfig

        fields: dict[str, Any] = {"checkpoint_every": 1, "n_workers": 1}
        fields.update(self.config)
        fields["domain"] = self.domain
        try:
            return GMRConfig(**fields)
        except TypeError as exc:
            raise JobSpecError(f"bad config override: {exc}") from exc
        except ConfigError as exc:
            raise JobSpecError(f"invalid config: {exc}") from exc

    def make_budget(self):
        """The job's :class:`~repro.gp.governor.CampaignBudget` or None."""
        from repro.gp.governor import CampaignBudget, GovernorConfigError

        if not self.budget:
            return None
        try:
            budget = CampaignBudget.from_json(self.budget)
        except GovernorConfigError as exc:
            raise JobSpecError(f"invalid budget: {exc}") from exc
        return None if budget.unlimited else budget


# -- Record -------------------------------------------------------------


@dataclass
class JobRecord:
    """A job as the store knows it: spec + replayed state history."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    detail: dict[str, Any] = field(default_factory=dict)
    transitions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def runnable(self) -> bool:
        return self.state in RUNNABLE_STATES

    def to_json(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "detail": dict(self.detail),
            "spec": self.spec.to_json(),
            "transitions": list(self.transitions),
        }


def check_transition(current: str, new: str) -> None:
    """Raise :class:`JobStateError` unless ``current -> new`` is on-table."""
    if new not in JOB_STATES:
        raise JobStateError(
            f"unknown job state {new!r}; known: {list(JOB_STATES)}"
        )
    if new not in TRANSITIONS.get(current, ()):
        raise JobStateError(
            f"invalid transition {current!r} -> {new!r}; from {current!r} "
            f"only {list(TRANSITIONS.get(current, ()))} are reachable"
        )


# -- Store --------------------------------------------------------------


def _append_jsonl(path: str, payload: dict[str, Any]) -> None:
    """Append one fsynced JSON line (complete-line-or-nothing on crash
    is not guaranteed by POSIX, which is why every reader tolerates a
    torn final line)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _read_jsonl(path: str) -> list[dict[str, Any]]:
    """Replay an append-only JSONL log; a torn final line is ignored."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError:
        return []
    entries: list[dict[str, Any]] = []
    with handle:
        line = handle.readline()
        while line:
            next_line = handle.readline() if line.endswith("\n") else ""
            stripped = line.strip()
            if stripped:
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError:
                    if not next_line:
                        break  # torn final line from a killed writer
                    raise
                if isinstance(payload, dict):
                    entries.append(payload)
            line = next_line
    return entries


class JobStore:
    """On-disk job registry: idempotent submission, durable state.

    One store root serves one server instance at a time (running jobs
    additionally claim their checkpoint directories, so even two
    servers pointed at the same root cannot interleave writers on one
    job).  All methods are synchronous and cheap; the asyncio layer
    calls them directly.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        self.jobs_root = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_root, exist_ok=True)

    # -- paths -------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_root, job_id)

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "spec.json")

    def state_log_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "state.jsonl")

    def checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "ckpt")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.jsonl")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def _submissions_path(self) -> str:
        return os.path.join(self.root, "submissions.jsonl")

    # -- submission --------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Register a job; idempotent on the content-addressed id.

        Returns ``(record, created)``.  A resubmission of an existing
        spec returns the stored record unchanged with ``created=False``
        -- never a second campaign.  Creation is race-safe across
        processes: the spec file is created with ``O_EXCL``, so exactly
        one of two concurrent submitters initialises the job.
        """
        job_id = spec.job_id()
        spec_path = self.spec_path(job_id)
        if os.path.exists(spec_path):
            return self.load(job_id), False
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        text = json.dumps(spec.to_json(), sort_keys=True, indent=2) + "\n"
        try:
            fd = os.open(spec_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self.load(job_id), False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        _append_jsonl(self.state_log_path(job_id), {"state": QUEUED})
        _append_jsonl(self._submissions_path(), {"job_id": job_id})
        return self.load(job_id), True

    # -- loading -----------------------------------------------------

    def exists(self, job_id: str) -> bool:
        return os.path.exists(self.spec_path(job_id))

    def load(self, job_id: str) -> JobRecord:
        """Rebuild a record by replaying its state log."""
        try:
            with open(self.spec_path(job_id), encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            raise JobNotFoundError(job_id) from None
        except json.JSONDecodeError as exc:
            raise JobError(f"corrupt spec for job {job_id}: {exc}") from exc
        spec = JobSpec.from_json(payload)
        transitions = _read_jsonl(self.state_log_path(job_id))
        record = JobRecord(job_id=job_id, spec=spec, transitions=transitions)
        if transitions:
            record.state = transitions[-1].get("state", QUEUED)
            detail = transitions[-1].get("detail")
            record.detail = detail if isinstance(detail, dict) else {}
        return record

    def submitted_ids(self) -> list[str]:
        """Job ids in arrival order (deduplicated, existing only)."""
        seen: dict[str, None] = {}
        for entry in _read_jsonl(self._submissions_path()):
            job_id = entry.get("job_id")
            if isinstance(job_id, str) and job_id not in seen:
                seen[job_id] = None
        known = dict(seen)
        # Jobs materialised without a submissions line (a submitter
        # killed between the two appends) still surface, last.
        try:
            names = sorted(os.listdir(self.jobs_root))
        except OSError:
            names = []
        for name in names:
            if name not in known and os.path.exists(self.spec_path(name)):
                known[name] = None
        return [job_id for job_id in known if self.exists(job_id)]

    def list_jobs(self) -> list[JobRecord]:
        """All stored jobs, in arrival order."""
        return [self.load(job_id) for job_id in self.submitted_ids()]

    # -- state transitions -------------------------------------------

    def transition(
        self,
        job_id: str,
        state: str,
        detail: dict[str, Any] | None = None,
    ) -> JobRecord:
        """Append one validated state transition and return the record."""
        record = self.load(job_id)
        check_transition(record.state, state)
        entry: dict[str, Any] = {"state": state}
        if detail:
            entry["detail"] = detail
        _append_jsonl(self.state_log_path(job_id), entry)
        record.state = state
        record.detail = dict(detail or {})
        record.transitions.append(entry)
        return record

    def recover(self) -> list[JobRecord]:
        """Mark jobs a dead server left ``running`` as ``checkpointed``.

        Called once at startup: any job whose last transition says
        ``running`` was in flight when the previous process died
        (SIGKILL skips every graceful path), and its on-disk campaign
        state -- per-seed results, checkpoint envelopes, the stale
        directory claim -- is exactly what resume needs.  Returns the
        re-marked records.
        """
        recovered: list[JobRecord] = []
        for record in self.list_jobs():
            if record.state == RUNNING:
                recovered.append(
                    self.transition(
                        record.job_id,
                        CHECKPOINTED,
                        {"reason": "server-restart"},
                    )
                )
        return recovered

    # -- results -----------------------------------------------------

    def write_result(self, job_id: str, payload: dict[str, Any]) -> None:
        """Atomically persist a job's result summary JSON."""
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _atomic_write(self.result_path(job_id), text.encode("utf-8"))

    def read_result(self, job_id: str) -> dict[str, Any] | None:
        try:
            with open(self.result_path(job_id), encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            return None
        except json.JSONDecodeError as exc:
            raise JobError(f"corrupt result for job {job_id}: {exc}") from exc


def runnable_jobs(records: Iterable[JobRecord]) -> list[JobRecord]:
    """Scheduling order: priority desc, then arrival (stable sort)."""
    runnable = [record for record in records if record.runnable]
    runnable.sort(key=lambda record: -record.spec.priority)
    return runnable
