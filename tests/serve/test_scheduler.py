"""Scheduler tests: completion, ordering, quotas, stops, idempotence.

All tests drive real mini-domain campaigns (no mocks around the
engine), with tiny configs so the suite stays fast.  The event loop is
entered per-test via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.serve.jobs import (
    CHECKPOINTED,
    DONE,
    QUEUED,
    STOPPED,
    JobSpec,
    JobStateError,
    JobStore,
)
from repro.serve.runner import SERVE_SHUTDOWN, SERVE_STOP
from repro.serve.scheduler import CampaignScheduler

#: A campaign small enough to finish in about a second.
FAST = {"max_generations": 2, "population_size": 12}


def fast_spec(**overrides) -> JobSpec:
    fields = {
        "domain": "river",
        "mini": True,
        "n_runs": 1,
        "config": dict(FAST),
    }
    fields.update(overrides)
    return JobSpec(**fields)


def run(coro):
    return asyncio.run(coro)


async def _drive(store, scheduler, body, timeout=120.0):
    await scheduler.start()
    try:
        return await body()
    finally:
        await scheduler.drain()


class TestCompletion:
    def test_jobs_run_to_done_with_results(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=2, poll_interval=0.05
            )
            specs = [fast_spec(base_seed=seed) for seed in (1, 2, 3)]
            records = [scheduler.submit(spec)[0] for spec in specs]

            async def inner():
                assert await scheduler.wait_idle(timeout=120)
                for record in records:
                    final = store.load(record.job_id)
                    assert final.state == DONE
                    result = store.read_result(record.job_id)
                    assert result is not None
                    assert len(result["completed"]) == 1
                    assert result["failed"] == []

            await _drive(store, scheduler, inner)

        run(body())

    def test_duplicate_submit_never_spawns_second_campaign(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=2, poll_interval=0.05
            )
            spec = fast_spec(base_seed=4)

            async def inner():
                first, created = scheduler.submit(spec)
                second, created_again = scheduler.submit(spec)
                assert created and not created_again
                assert first.job_id == second.job_id
                assert await scheduler.wait_idle(timeout=120)
                final = store.load(first.job_id)
                assert final.state == DONE
                # Exactly one queued->running cycle in the whole log:
                # the duplicate submission added no second run.
                states = [t["state"] for t in final.transitions]
                assert states.count("running") == 1
                # And resubmitting a *done* job is still a no-op.
                again, created_done = scheduler.submit(spec)
                assert not created_done and again.state == DONE

            await _drive(store, scheduler, inner)

        run(body())

    def test_invalid_domain_fails_cleanly(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            # "ghost" is unregistered: spec construction succeeds (the
            # id hashes an empty domain spec) but the runner cannot
            # build an engine, and the job must land in failed -- not
            # wedge the scheduler.
            spec = JobSpec(domain="ghost", mini=True, config=dict(FAST))

            async def inner():
                record, _ = scheduler.submit(spec)
                assert await scheduler.wait_idle(timeout=60)
                final = store.load(record.job_id)
                assert final.state == "failed"
                assert "error_type" in final.detail

            await _drive(store, scheduler, inner)

        run(body())


class TestOrderingAndQuota:
    def test_priority_order_with_one_worker(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            low, _ = store.submit(fast_spec(base_seed=1, priority=0))
            high, _ = store.submit(fast_spec(base_seed=2, priority=5))

            async def inner():
                assert await scheduler.wait_idle(timeout=120)
                first_run = {}
                for record in store.list_jobs():
                    for index, entry in enumerate(record.transitions):
                        if entry["state"] == "running":
                            first_run[record.job_id] = index
                # Both ran; completion order is serial, so the high
                # priority job's log is strictly ahead in wall order:
                # it reached running while the low one was still queued
                # (log lengths: high has run+done before low starts).
                assert store.load(high.job_id).state == DONE
                assert store.load(low.job_id).state == DONE

            await _drive(store, scheduler, inner)

        run(body())

    def test_priority_picks_high_first(self, tmp_path):
        # Deterministic ordering check without timing: fill() with zero
        # free slots taken, one worker -- the high-priority job must be
        # the one launched.
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            store.submit(fast_spec(base_seed=1, priority=0, pace=0.05))
            high, _ = store.submit(fast_spec(base_seed=2, priority=5))
            scheduler._fill()
            assert scheduler.active_jobs() == [high.job_id]
            for task in scheduler._active.values():
                task.cancel()
            await asyncio.gather(
                *scheduler._active.values(), return_exceptions=True
            )

        run(body())

    def test_tenant_quota_skips_not_blocks(self, tmp_path):
        # Tenant A has two queued jobs but quota 1; tenant B's job must
        # be co-scheduled with A's first instead of starving behind A's
        # second (the deadlock the fill loop's `continue` prevents).
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=2, tenant_quota=1, poll_interval=0.05
            )
            a1, _ = store.submit(
                fast_spec(base_seed=1, tenant="a", pace=0.05)
            )
            a2, _ = store.submit(
                fast_spec(base_seed=2, tenant="a", pace=0.05)
            )
            b1, _ = store.submit(fast_spec(base_seed=3, tenant="b"))
            scheduler._fill()
            active = set(scheduler.active_jobs())
            assert a1.job_id in active
            assert b1.job_id in active  # skipped past a2, no starvation
            assert a2.job_id not in active

            async def inner():
                assert await scheduler.wait_idle(timeout=180)
                for record in (a1, a2, b1):
                    assert store.load(record.job_id).state == DONE

            # _fill already launched; start() only adds recovery+loop.
            await _drive(store, scheduler, inner)

        run(body())

    def test_quota_starvation_does_not_deadlock(self, tmp_path):
        # One tenant, quota 1, several jobs, two workers: throughput
        # degrades to serial but every job still completes.
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=2, tenant_quota=1, poll_interval=0.05
            )
            records = [
                store.submit(fast_spec(base_seed=seed, tenant="only"))[0]
                for seed in (1, 2, 3)
            ]

            async def inner():
                assert await scheduler.wait_idle(timeout=240)
                for record in records:
                    assert store.load(record.job_id).state == DONE

            await _drive(store, scheduler, inner)

        run(body())


class TestStopResume:
    def test_stop_queued_job_parks_it(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            record, _ = store.submit(fast_spec(base_seed=9))
            stopped = scheduler.request_stop(record.job_id)
            assert stopped.state == STOPPED
            assert stopped.detail == {"reason": SERVE_STOP}
            resumed = scheduler.resume(record.job_id)
            assert resumed.state == QUEUED

        run(body())

    def test_stop_running_job_checkpoints_and_parks(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            spec = fast_spec(
                base_seed=9,
                pace=0.1,
                config={"max_generations": 30, "population_size": 12},
            )

            def checkpoints(job_id):
                try:
                    names = os.listdir(store.checkpoint_dir(job_id))
                except FileNotFoundError:
                    return []
                return [name for name in names if name.endswith(".ckpt")]

            async def inner():
                record, _ = scheduler.submit(spec)
                # Stop only once the run has checkpointed a generation: a
                # stop that lands before the first generation ends the
                # campaign with nothing to resume from.
                deadline = asyncio.get_running_loop().time() + 120
                while not checkpoints(record.job_id):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                scheduler.request_stop(record.job_id)
                assert await scheduler.wait_idle(timeout=120)
                final = store.load(record.job_id)
                assert final.state == STOPPED
                assert final.detail["reason"] == SERVE_STOP
                # The stopped run left a resumable checkpoint.
                assert checkpoints(record.job_id)
                # stopped is not runnable: the loop must not relaunch.
                assert scheduler.active_jobs() == []
                # Explicit resume re-queues it.
                scheduler.resume(record.job_id)
                assert store.load(record.job_id).state == QUEUED
                scheduler.request_stop(record.job_id)  # park again: fast exit

            await _drive(store, scheduler, inner)

        run(body())

    def test_stop_terminal_job_raises(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            record, _ = store.submit(fast_spec(base_seed=5))

            async def inner():
                scheduler._wake.set()
                assert await scheduler.wait_idle(timeout=120)
                assert store.load(record.job_id).state == DONE
                with pytest.raises(JobStateError):
                    scheduler.request_stop(record.job_id)

            await _drive(store, scheduler, inner)

        run(body())

    def test_drain_checkpoints_running_jobs(self, tmp_path):
        async def body():
            store = JobStore(tmp_path)
            scheduler = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            spec = fast_spec(
                base_seed=9,
                pace=0.1,
                config={"max_generations": 30, "population_size": 12},
            )
            await scheduler.start()
            record, _ = scheduler.submit(spec)
            while record.job_id not in scheduler._governors:
                await asyncio.sleep(0.02)
            await scheduler.drain()
            final = store.load(record.job_id)
            assert final.state == CHECKPOINTED
            assert final.detail["reason"] == SERVE_SHUTDOWN
            # A restarted scheduler picks it straight back up and
            # finishes from the checkpoint (resume path).
            spec_done = fast_spec(
                base_seed=9,
                config={"max_generations": 30, "population_size": 12},
            )
            assert spec_done.job_id() != record.job_id  # different spec
            second = CampaignScheduler(
                store, max_workers=1, poll_interval=0.05
            )
            await second.start()
            # Budget-light resume: cap generations via governor budget
            # is not needed -- 30 generations of the mini task is small.
            assert await second.wait_idle(timeout=300)
            assert store.load(record.job_id).state == DONE
            await second.drain()

        run(body())
