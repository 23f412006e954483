"""Job store unit tests: identity, idempotence, the state machine."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.gp.checkpoint import CheckpointError
from repro.serve.jobs import (
    CHECKPOINTED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    STOPPED,
    TRANSITIONS,
    JobNotFoundError,
    JobRecord,
    JobSpec,
    JobSpecError,
    JobStateError,
    JobStore,
    check_transition,
    runnable_jobs,
)


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(
            domain="river",
            n_runs=3,
            base_seed=11,
            mini=True,
            tenant="acme",
            priority=2,
            config={"max_generations": 4},
            budget={"max_generations": 2},
            pace=0.1,
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job spec field"):
            JobSpec.from_json({"domain": "river", "surprise": 1})

    def test_unknown_budget_field_rejected_at_construction(self):
        with pytest.raises(JobSpecError, match="invalid budget"):
            JobSpec(budget={"max_minutes": 5})

    def test_bad_config_override_rejected_at_construction(self):
        with pytest.raises(JobSpecError, match="bad config override"):
            JobSpec(config={"no_such_knob": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"domain": ""},
            {"n_runs": 0},
            {"pace": -0.1},
            {"tenant": ""},
            {"config": "nope"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(JobSpecError):
            JobSpec(**kwargs)

    def test_job_id_is_deterministic(self):
        a = JobSpec(domain="river", n_runs=2, config={"max_generations": 3})
        b = JobSpec(domain="river", n_runs=2, config={"max_generations": 3})
        assert a.job_id() == b.job_id()

    def test_job_id_diverges_on_any_field(self):
        base = JobSpec(domain="river", n_runs=2)
        variants = [
            JobSpec(domain="river", n_runs=3),
            JobSpec(domain="river", n_runs=2, base_seed=1),
            JobSpec(domain="river", n_runs=2, tenant="other"),
            JobSpec(domain="river", n_runs=2, priority=1),
            JobSpec(domain="river", n_runs=2, mini=True),
            JobSpec(domain="river", n_runs=2, budget={"max_generations": 1}),
        ]
        ids = {spec.job_id() for spec in variants}
        assert base.job_id() not in ids
        assert len(ids) == len(variants)

    def test_job_id_depends_on_domain_spec_hash(self):
        # An unregistered domain hashes the empty spec string; the
        # textual spec alone does not determine the id.
        river = JobSpec(domain="river")
        sir = JobSpec(domain="sir")
        assert river.job_id() != sir.job_id()


class TestTransitionTable:
    def test_reachability_is_exactly_the_table(self):
        for current in JOB_STATES:
            for new in JOB_STATES:
                if new in TRANSITIONS[current]:
                    check_transition(current, new)
                else:
                    with pytest.raises(JobStateError):
                        check_transition(current, new)

    def test_unknown_state_rejected(self):
        with pytest.raises(JobStateError, match="unknown job state"):
            check_transition(QUEUED, "paused")

    def test_terminal_states_have_no_exits(self):
        assert TRANSITIONS[DONE] == ()
        assert TRANSITIONS[FAILED] == ()


class TestJobStore:
    def test_submit_creates_and_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec(domain="river", n_runs=2)
        record, created = store.submit(spec)
        assert created
        assert record.state == QUEUED
        again, created_again = store.submit(spec)
        assert not created_again
        assert again.job_id == record.job_id
        # One job directory, one submissions line.
        assert store.submitted_ids() == [record.job_id]

    def test_load_missing_job_raises(self, tmp_path):
        with pytest.raises(JobNotFoundError, match="no such job"):
            JobStore(tmp_path).load("feedface")

    def test_transition_appends_and_replays(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        store.transition(record.job_id, RUNNING)
        store.transition(record.job_id, CHECKPOINTED, {"reason": "pause"})
        loaded = store.load(record.job_id)
        assert loaded.state == CHECKPOINTED
        assert loaded.detail == {"reason": "pause"}
        assert [t["state"] for t in loaded.transitions] == [
            QUEUED,
            RUNNING,
            CHECKPOINTED,
        ]

    def test_off_table_transition_raises_and_leaves_log_clean(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        with pytest.raises(JobStateError):
            store.transition(record.job_id, DONE)  # queued -> done: no
        assert store.load(record.job_id).state == QUEUED

    def test_torn_final_state_line_is_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        store.transition(record.job_id, RUNNING)
        with open(store.state_log_path(record.job_id), "a") as handle:
            handle.write('{"state": "do')  # killed mid-append
        loaded = store.load(record.job_id)
        assert loaded.state == RUNNING

    def test_recover_marks_running_as_checkpointed(self, tmp_path):
        store = JobStore(tmp_path)
        running, _ = store.submit(JobSpec(domain="river", base_seed=1))
        queued, _ = store.submit(JobSpec(domain="river", base_seed=2))
        store.transition(running.job_id, RUNNING)
        recovered = store.recover()
        assert [r.job_id for r in recovered] == [running.job_id]
        assert store.load(running.job_id).state == CHECKPOINTED
        assert store.load(running.job_id).detail == {
            "reason": "server-restart"
        }
        assert store.load(queued.job_id).state == QUEUED

    def test_arrival_order_survives_reload(self, tmp_path):
        store = JobStore(tmp_path)
        ids = []
        for seed in (5, 3, 9):
            record, _ = store.submit(JobSpec(domain="river", base_seed=seed))
            ids.append(record.job_id)
        assert [r.job_id for r in JobStore(tmp_path).list_jobs()] == ids

    def test_result_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        assert store.read_result(record.job_id) is None
        store.write_result(record.job_id, {"completed": [1, 2]})
        assert store.read_result(record.job_id) == {"completed": [1, 2]}

    def test_failed_result_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        """A result write whose rename fails raises, keeps the previous
        result and leaves no ``*.tmp.*`` sibling behind."""
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        store.write_result(record.job_id, {"completed": [1]})

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(CheckpointError, match="disk full"):
            store.write_result(record.job_id, {"completed": [1, 2]})
        monkeypatch.undo()
        result = store.result_path(record.job_id)
        assert store.read_result(record.job_id) == {"completed": [1]}
        assert not list(Path(result).parent.glob("*.tmp.*"))

    def test_record_to_json_is_serialisable(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(JobSpec(domain="river"))
        payload = json.loads(json.dumps(record.to_json()))
        assert payload["state"] == QUEUED
        assert payload["spec"]["domain"] == "river"


class TestRunnableOrdering:
    def _record(self, seed: int, priority: int, state: str) -> JobRecord:
        spec = JobSpec(domain="river", base_seed=seed, priority=priority)
        return JobRecord(job_id=spec.job_id(), spec=spec, state=state)

    def test_priority_then_arrival(self):
        records = [
            self._record(1, 0, QUEUED),
            self._record(2, 5, CHECKPOINTED),
            self._record(3, 5, QUEUED),
            self._record(4, 0, DONE),
            self._record(5, 1, RUNNING),
            self._record(6, -1, QUEUED),
        ]
        ordered = runnable_jobs(records)
        assert [r.spec.base_seed for r in ordered] == [2, 3, 1, 6]

    def test_stopped_jobs_are_not_runnable(self):
        assert runnable_jobs([self._record(1, 9, STOPPED)]) == []
