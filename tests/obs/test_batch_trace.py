"""``evaluation_batch`` trace points report the evaluator's own stats.

Each :meth:`GMRFitnessEvaluator.evaluate_batch` call emits one point
whose ``cache_hits``, ``compile_time`` and ``step_time`` are the
:class:`EvaluationStats` deltas over that call.  The fields of the
deleted vector path and structure fusion are off the schema: points do
not carry them, and traces written while they existed no longer
validate.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.knowledge import build_grammar
from repro.obs import MemorySink, TraceSchemaError, Tracer, iter_trace, validate_event
from tests.oracle import SMALL_CONFIG, make_cohort, toy_knowledge, toy_task

DELTAS = ("cache_hits", "compile_time", "step_time")
#: Fields only the deleted vector path and structure fusion wrote.
RETIRED = ("batched", "groups", "columns", "cohorts", "batch_fill", "source")


@pytest.mark.parametrize(
    "use_compilation", [True, False], ids=["scalar", "interpreter"]
)
def test_batch_point_fields_are_stats_deltas(use_compilation):
    config = dataclasses.replace(SMALL_CONFIG, use_compilation=use_compilation)
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
        assert not set(RETIRED) & set(event.fields)
        for name in DELTAS:
            delta = getattr(evaluator.stats, name) - getattr(before, name)
            assert event.fields[name] == delta, name
        assert event.fields["step_time"] > 0
    assert event.fields["cache_hits"] > 0


def test_points_with_retired_fields_are_refused(tmp_path):
    """An ``evaluation_batch`` line as written while structure fusion
    existed, ``cohorts`` and the vector path's fields included."""
    fields = dict(
        size=24, batched=True, cache_hits=0, groups=3, columns=21, cohorts=1,
        wall_time=0.01, compile_time=0.002, step_time=0.006, batch_fill=0.001,
        source="batched",
    )
    line = dict(
        seq=0, kind="evaluation_batch", phase="point", t=1.5, span=1, parent=0,
        fields=fields,
    )
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(TraceSchemaError, match="unexpected field"):
        list(iter_trace(path))
