"""Resource governor: budgets, cooperative stops, resume bit-identity.

The acceptance property: a budget-stopped run resumed with a larger
budget continues *bit-identically* with an uninterrupted run -- same
history, same champion, same evaluation statistics -- on the scalar and
the batched evaluation path alike.
"""

from __future__ import annotations

import os

import pytest

from repro.gp.checkpoint import (
    checkpoint_file,
    load_checkpoint,
    result_file,
)
from repro.gp.governor import (
    CampaignBudget,
    GovernorConfigError,
    RunGovernor,
    STOP_EVALUATIONS,
    STOP_GENERATIONS,
    STOP_WALL_CLOCK,
)
from repro.gp.resilience import run_campaign
from tests.faults import FaultInjectingEngine, FaultPlan


def histories(result):
    return [record.best_fitness for record in result.history]


def assert_bit_identical(ours, theirs):
    assert histories(ours) == histories(theirs)
    assert ours.best_fitness == theirs.best_fitness
    assert ours.best.size == theirs.best.size
    assert ours.best.params == theirs.best.params
    assert ours.stats.evaluations == theirs.stats.evaluations
    assert ours.stats.cache_hits == theirs.stats.cache_hits
    assert ours.stats.short_circuits == theirs.stats.short_circuits
    assert ours.stats.full_evaluations == theirs.stats.full_evaluations


class TestBudgetValidation:
    def test_nonpositive_wall_clock_rejected(self):
        with pytest.raises(GovernorConfigError):
            CampaignBudget(max_wall_clock=0)

    def test_nonpositive_evaluations_rejected(self):
        with pytest.raises(GovernorConfigError):
            CampaignBudget(max_evaluations=0)

    def test_negative_generations_rejected(self):
        with pytest.raises(GovernorConfigError):
            CampaignBudget(max_generations=-1)

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(GovernorConfigError):
            RunGovernor(heartbeat_every=-1)

    def test_unlimited_budget_collapses_to_none(self):
        governor = RunGovernor(budget=CampaignBudget())
        assert governor.budget is None

    def test_deterministic_ceilings_win_over_wall_clock(self):
        budget = CampaignBudget(
            max_wall_clock=0.001, max_evaluations=10, max_generations=2
        )
        state = dict(generation=5, evaluations=50, elapsed=9.9)
        assert budget.exceeded(**state) == STOP_GENERATIONS
        no_gen = CampaignBudget(max_wall_clock=0.001, max_evaluations=10)
        assert no_gen.exceeded(**state) == STOP_EVALUATIONS

    def test_stop_flag_survives_pickle_free(self):
        import pickle

        governor = RunGovernor(budget=CampaignBudget(max_generations=1))
        governor.request_stop("signal:SIGTERM")
        clone = pickle.loads(pickle.dumps(governor))
        assert clone.stop_requested is None
        assert governor.stop_requested == "signal:SIGTERM"


class TestBudgetStops:
    def test_generation_budget_stops_at_boundary(self, make_engine, tmp_path):
        engine = make_engine(max_generations=3)
        engine.governor = RunGovernor(
            budget=CampaignBudget(max_generations=1)
        )
        path = tmp_path / "run.ckpt"
        partial = engine.run(seed=11, checkpoint_path=path)
        assert partial.stop_reason == STOP_GENERATIONS
        assert len(partial.history) == 2  # generations 0 and 1 completed
        # The stop forced a final checkpoint even with checkpoint_every=0.
        checkpoint = load_checkpoint(path)
        assert checkpoint.generation == 1
        assert checkpoint.stop_reason == STOP_GENERATIONS

    def test_evaluation_budget_stops_after_seed_cohort(
        self, make_engine, tmp_path
    ):
        engine = make_engine(max_generations=3)
        engine.governor = RunGovernor(
            budget=CampaignBudget(max_evaluations=1)
        )
        partial = engine.run(seed=11, checkpoint_path=tmp_path / "run.ckpt")
        assert partial.stop_reason == STOP_EVALUATIONS
        assert len(partial.history) == 1  # only generation 0

    def test_wall_clock_budget_stops(self, make_engine):
        engine = make_engine(max_generations=3)
        engine.governor = RunGovernor(
            budget=CampaignBudget(max_wall_clock=1e-9)
        )
        partial = engine.run(seed=11)
        assert partial.stop_reason == STOP_WALL_CLOCK
        assert len(partial.history) == 1

    def test_unbudgeted_run_reports_no_stop_reason(self, make_engine):
        result = make_engine().run(seed=11)
        assert result.stop_reason is None

    def test_governor_without_budget_changes_nothing(self, make_engine):
        plain = make_engine().run(seed=13)
        governed_engine = make_engine()
        governed_engine.governor = RunGovernor()
        governed = governed_engine.run(seed=13)
        assert governed.stop_reason is None
        assert_bit_identical(governed, plain)


class TestResumeBitIdentity:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="scalar"),
            pytest.param({"eval_batch_size": 6}, id="batched"),
        ],
    )
    def test_resume_with_larger_budget_matches_uninterrupted(
        self, make_engine, tmp_path, overrides
    ):
        full = make_engine(max_generations=4, **overrides).run(seed=21)

        stopped = make_engine(max_generations=4, **overrides)
        stopped.governor = RunGovernor(
            budget=CampaignBudget(max_generations=2)
        )
        path = tmp_path / "run.ckpt"
        partial = stopped.run(seed=21, checkpoint_path=path)
        assert partial.stop_reason == STOP_GENERATIONS
        assert len(partial.history) == 3

        resuming = make_engine(max_generations=4, **overrides)
        resuming.governor = RunGovernor(
            budget=CampaignBudget(max_generations=100)
        )
        resumed = resuming.run(resume_from=path)
        assert resumed.stop_reason is None
        assert_bit_identical(resumed, full)

    def test_resume_under_exhausted_budget_stops_before_working(
        self, make_engine, tmp_path
    ):
        stopped = make_engine(max_generations=4)
        stopped.governor = RunGovernor(
            budget=CampaignBudget(max_generations=2)
        )
        path = tmp_path / "run.ckpt"
        partial = stopped.run(seed=21, checkpoint_path=path)

        resuming = make_engine(max_generations=4)
        resuming.governor = RunGovernor(
            budget=CampaignBudget(max_generations=2)
        )
        still_stopped = resuming.run(resume_from=path)
        assert still_stopped.stop_reason == STOP_GENERATIONS
        # No extra generation of over-budget work was done.
        assert len(still_stopped.history) == len(partial.history)
        assert (
            still_stopped.stats.evaluations == partial.stats.evaluations
        )


class TestSignalStops:
    def test_sigterm_mid_generation_finishes_and_checkpoints(
        self, make_engine, tmp_path
    ):
        full = make_engine(
            engine_cls=FaultInjectingEngine, max_generations=3
        ).run(seed=5)

        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={"plan": FaultPlan(term_at_evaluation=8)},
            max_generations=3,
        )
        engine.governor = RunGovernor(handle_signals=True)
        path = tmp_path / "run.ckpt"
        partial = engine.run(seed=5, checkpoint_path=path)
        assert partial.stop_reason == "signal:SIGTERM"
        # The in-flight generation completed before the stop.
        assert len(partial.history) >= 2
        assert len(partial.history) < len(full.history)
        checkpoint = load_checkpoint(path)
        assert checkpoint.stop_reason == "signal:SIGTERM"
        assert checkpoint.generation == len(partial.history) - 1

        resumed = make_engine(
            engine_cls=FaultInjectingEngine, max_generations=3
        ).run(resume_from=path)
        assert resumed.stop_reason is None
        assert_bit_identical(resumed, full)

    def test_previous_handlers_are_restored(self, make_engine):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        engine = make_engine(max_generations=1)
        engine.governor = RunGovernor(handle_signals=True)
        engine.run(seed=1)
        assert signal.getsignal(signal.SIGTERM) is before


class TestCampaignStops:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_campaign_stops_after_budget_stopped_run(
        self, make_engine, tmp_path, max_workers
    ):
        # One seed per worker: every seed starts, so nothing is racy.
        engine = make_engine(max_generations=3, checkpoint_every=1)
        engine.governor = RunGovernor(
            budget=CampaignBudget(max_generations=1)
        )
        campaign = run_campaign(
            engine,
            max_workers,
            base_seed=0,
            max_workers=max_workers,
            checkpoint_dir=tmp_path,
        )
        assert campaign.stop_reason == STOP_GENERATIONS
        assert len(campaign.completed) == max_workers
        for run in campaign.completed:
            assert run.stop_reason == STOP_GENERATIONS
            # A stopped run keeps its snapshot and writes no result file.
            assert os.path.exists(checkpoint_file(tmp_path, run.seed))
            assert not os.path.exists(result_file(tmp_path, run.seed))

    def test_one_worker_starts_no_seed_after_a_stopped_run(
        self, make_engine, tmp_path
    ):
        engine = make_engine(max_generations=3, checkpoint_every=1)
        engine.governor = RunGovernor(
            budget=CampaignBudget(max_generations=1)
        )
        campaign = run_campaign(
            engine, 3, base_seed=0, max_workers=1, checkpoint_dir=tmp_path
        )
        assert campaign.stop_reason == STOP_GENERATIONS
        assert [run.seed for run in campaign.completed] == [0]
        # Seeds 1 and 2 were left for the next invocation, untouched.
        for seed in (1, 2):
            assert not os.path.exists(checkpoint_file(tmp_path, seed))
            assert not os.path.exists(result_file(tmp_path, seed))

    def test_rerun_with_larger_budget_completes_campaign(
        self, make_engine, tmp_path
    ):
        stopped = make_engine(max_generations=3, checkpoint_every=1)
        stopped.governor = RunGovernor(
            budget=CampaignBudget(max_generations=1)
        )
        run_campaign(
            stopped, 2, base_seed=0, max_workers=1, checkpoint_dir=tmp_path
        )

        relaxed = make_engine(max_generations=3, checkpoint_every=1)
        campaign = run_campaign(
            relaxed, 2, base_seed=0, max_workers=1, checkpoint_dir=tmp_path
        )
        assert campaign.stop_reason is None
        assert len(campaign.completed) == 2
        assert not os.path.exists(checkpoint_file(tmp_path, 0))

        reference = make_engine(max_generations=3, checkpoint_every=1).run(
            seed=0
        )
        assert_bit_identical(campaign.completed[0], reference)

    def test_pending_signal_stops_campaign_between_seeds(
        self, make_engine, tmp_path
    ):
        engine = make_engine(max_generations=2, checkpoint_every=1)
        engine.governor = RunGovernor()
        engine.governor.request_stop("signal:SIGTERM")
        campaign = run_campaign(
            engine, 3, base_seed=0, max_workers=1, checkpoint_dir=tmp_path
        )
        assert campaign.stop_reason == "signal:SIGTERM"
        assert campaign.completed == []
