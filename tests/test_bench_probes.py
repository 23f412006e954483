"""The end-to-end benchmark's probes still find what they wrap.

``benchmarks/e2e/spans.py``'s :class:`LayerProbe` wraps functions and
methods by name (``getattr`` on modules, ``owner.__dict__[attr]`` on
classes), so renaming a probed name breaks only the benchmark.  These
tests install the probes around a toy cohort's evaluation and check
that every probed path is seen and every wrapped callable is put back.
The benchmark files are loaded by path and left unchanged.

Installing the probe is what keeps seven inert names alive after the
vector path was deleted (ROADMAP item 1):

* ``repro.gp.fitness.batched_euler_rollout`` and
  ``fused_euler_rollout``, which it wraps;
* ``repro.dynamics.system.compile_model_batched`` and
  ``compile_model_cohort``, which it wraps;
* ``EvaluationStats.batched_evaluations``, ``batch_fill``,
  ``kernel_fallbacks`` and ``fusion_fallbacks``, which its
  ``fitness.batched_frac``, ``fitness.fill_share`` and
  ``fitness.degradations`` read.

Nothing in the package calls the wrapped names or increments the
fields, so the vector probes read 0 by construction.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import repro.dynamics.system as system
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.knowledge import build_grammar
from repro.lru import LRU
from tests.oracle import SMALL_CONFIG, make_cohort, toy_knowledge, toy_task

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_see_every_path_and_restore(monkeypatch):
    # A fresh kernel cache, so every kernel build is a probed miss.
    monkeypatch.setattr(system, "KERNEL_CACHE", LRU(512))
    knowledge = toy_knowledge()
    cohort = make_cohort(build_grammar(knowledge), knowledge, SMALL_CONFIG, seed=11)
    evaluator = GMRFitnessEvaluator(task=toy_task(), config=SMALL_CONFIG)

    spans = load_spans()
    probe = spans.LayerProbe(spans.SpanRecorder())
    probe.install()
    wrapped = list(probe.recorder._restore)
    try:
        evaluator.evaluate_batch(cohort)
        for member in copy.deepcopy(cohort[:3]):
            evaluator.evaluate(member)
    finally:
        probe.uninstall()

    assert wrapped
    for owner, attr, original in wrapped:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner!r}.{attr} not restored"
        assert not hasattr(original, "__wrapped__"), f"{attr} was wrapped twice"

    stats = evaluator.stats
    metrics = probe.metrics(stats, wall_s=1.0)
    assert metrics["fitness.evaluate_calls"] > 0
    assert metrics["fitness.batch_calls"] == 1
    assert metrics["compile.scalar_calls"] > 0
    assert metrics["integrate.scalar_rows"] > 0
    # The vector probes read 0 by construction.
    assert stats.batched_evaluations == 0
    assert metrics["integrate.batched_calls"] == metrics["integrate.fused_calls"] == 0
    assert metrics["compile.batched_calls"] == metrics["compile.cohort_calls"] == 0
    assert metrics["fitness.batched_frac"] == metrics["fitness.fill_share"] == 0
    assert metrics["fitness.degradations"] == 0
