"""``evaluation_batch`` trace points report the evaluator's own stats.

Each :meth:`GMRFitnessEvaluator.evaluate_batch` call emits one point
whose ``cache_hits``, ``compile_time``, ``step_time`` and ``batch_fill``
are the :class:`EvaluationStats` deltas over that call, on the vector
branch and on the scalar one (``use_batched_kernel=False``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.knowledge import build_grammar
from repro.obs import MemorySink, Tracer, validate_event
from tests.oracle import SMALL_CONFIG, make_cohort, toy_knowledge, toy_task

DELTAS = ("cache_hits", "compile_time", "step_time", "batch_fill")


@pytest.mark.parametrize("batched", [True, False], ids=["vector", "scalar"])
def test_batch_point_fields_are_stats_deltas(batched):
    config = dataclasses.replace(
        SMALL_CONFIG, use_batched_kernel=batched, kernel_min_batch=1
    )
    knowledge = toy_knowledge()
    cohort = make_cohort(build_grammar(knowledge), knowledge, config, seed=4)
    evaluator = GMRFitnessEvaluator(task=toy_task(), config=config)
    sink = MemorySink()
    evaluator.tracer = Tracer(sink)
    # make_cohort ends with copies of its first members, so the second
    # call hits the tree cache the first call filled.
    half = len(cohort) // 2
    for part in (cohort[:half], cohort[half:]):
        before = dataclasses.replace(evaluator.stats)
        evaluator.evaluate_batch(part)
        [event] = [e for e in sink.events if e.kind == "evaluation_batch"]
        sink.clear()
        validate_event(event)
        assert event.fields["size"] == len(part)
        assert event.fields["batched"] is batched
        assert event.fields["source"] == ("batched" if batched else "scalar")
        for name in DELTAS:
            delta = getattr(evaluator.stats, name) - getattr(before, name)
            assert event.fields[name] == delta, name
        assert event.fields["step_time"] > 0
    assert event.fields["cache_hits"] > 0
