"""The end-to-end benchmark's probes still find what they wrap.

``benchmarks/e2e/spans.py``'s :class:`LayerProbe` wraps functions and
methods by name (``getattr`` on modules, ``owner.__dict__[attr]`` on
classes), so renaming a probed name breaks only the benchmark.  These
tests install the probes around a toy cohort's evaluation and check
that every probed path is seen and every wrapped callable is put back.
The benchmark files are loaded by path and left unchanged.

Installing the probe is what keeps three names alive after structure
fusion was deleted (ROADMAP item 1): ``repro.gp.fitness.
fused_euler_rollout`` and ``repro.dynamics.system.compile_model_cohort``,
which it wraps, and ``EvaluationStats.fusion_fallbacks``, which its
``fitness.degradations`` sums.  The evaluator calls neither wrapped name.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
from pathlib import Path

import repro.dynamics.system as system
from repro.expr.compile import KernelCache
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.knowledge import build_grammar
from tests.oracle import SMALL_CONFIG, make_cohort, toy_knowledge, toy_task

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_see_every_path_and_restore(monkeypatch):
    # A fresh kernel cache, so every kernel build is a probed miss.
    monkeypatch.setattr(system, "KERNEL_CACHE", KernelCache(max_entries=512))
    config = dataclasses.replace(SMALL_CONFIG, kernel_min_batch=1)
    knowledge = toy_knowledge()
    cohort = make_cohort(build_grammar(knowledge), knowledge, config, seed=11)
    evaluator = GMRFitnessEvaluator(task=toy_task(), config=config)

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
    assert stats.batched_evaluations > 0
    assert metrics["integrate.fused_calls"] == metrics["compile.cohort_calls"] == 0
    assert metrics["integrate.batched_calls"] > 0
    assert metrics["compile.batched_calls"] > 0
