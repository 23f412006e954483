"""Outside-in spans: per-layer time measured by wrapping public callables.

The program itself is not instrumented.  :class:`LayerProbe` replaces
each layer's public callables -- as class attributes, so guards of the form
``type(self).evaluate is GMRFitnessEvaluator.evaluate`` still hold and
pickled checkpoints are unaffected, or as names in the module that
imports them -- with wrappers that open a span on a stack.  A span's
self time is its duration minus the time its child spans cover.  Spans
stay in memory; the caller writes them out when the rep ends.

Error streams (the scalar Algorithm 1 loop's fitness cases) are timed
per ``next()`` call but kept as one span per stream, so a 730-case
evaluation costs one span record, not 730.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Iterator

_clock = time.perf_counter


class _Open:
    """A span on the stack: its record index and the time its children took."""

    __slots__ = ("index", "started", "child")

    def __init__(self, index: int, started: float) -> None:
        self.index = index
        self.started = started
        self.child = 0.0


class SpanRecorder:
    """Spans, their per-name totals, and counters made at the same boundaries.

    ``spans`` holds one ``[name, parent, start, duration]`` record per
    span (``parent`` is the index of the enclosing span's record, -1 at
    the top; ``start`` is relative to the recorder's creation).
    """

    def __init__(self) -> None:
        self.origin = _clock()
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[_Open] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> None:
        parent = self._stack[-1].index if self._stack else -1
        started = _clock()
        self.spans.append([name, parent, started - self.origin, 0.0])
        self._stack.append(_Open(len(self.spans) - 1, started))

    def _close(self) -> None:
        span = self._stack.pop()
        duration = _clock() - span.started
        record = self.spans[span.index]
        record[3] = duration
        self.self_s[record[0]] += duration - span.child
        self.calls[record[0]] += 1
        if self._stack:
            self._stack[-1].child += duration

    def stream(self, name: str, rows: str, iterable: Iterable) -> Iterator:
        """Time the consumption of ``iterable`` as one span named ``name``.

        Only the time spent producing items counts; the consumer's own
        work between items stays with the enclosing span.  ``rows``
        names the counter of items produced.
        """
        iterator = iter(iterable)
        parent = self._stack[-1].index if self._stack else -1
        started = _clock() - self.origin
        busy = 0.0
        produced = 0
        try:
            while True:
                before = _clock()
                try:
                    value = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = _clock() - before
                    busy += elapsed
                    if self._stack:
                        self._stack[-1].child += elapsed
                produced += 1
                yield value
        finally:
            self.spans.append([name, parent, started, busy])
            self.self_s[name] += busy
            self.calls[name] += 1
            self.counts[rows] += produced

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`restore`.

        ``before(args)`` runs ahead of the span and ``after(args, result)``
        after it, so their bookkeeping is not timed as the layer's work.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap_stream(self, owner: type, attr: str, name: str, rows: str) -> None:
        """Wrap a method returning an iterator so consuming it is spanned."""
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.stream(name, rows, original(*args, **kwargs))

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _rows_run(rollout, width: int) -> int:
    """Lane-steps a batched/fused rollout integrated.

    The rollout loop stops early only when every lane has diverged; it
    then ran up to and including the last lane's divergence row.
    """
    n_steps = rollout.n_steps
    diverged_at = rollout.diverged_at
    if width and bool((diverged_at < n_steps).all()):
        return (int(diverged_at.max()) + 1) * width
    return n_steps * width


class LayerProbe:
    """The benchmark's probes on this repository's layers.

    :meth:`install` wraps each layer's public callables in ``recorder``
    spans; :meth:`uninstall` restores them.  Evaluators are captured as
    they are first used (fresh and resumed ones alike) so their cache
    counters can be read as deltas over the probed interval.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.evaluators: dict[int, tuple[Any, tuple[int, ...]]] = {}
        self.kernel_cache_before: tuple[int, int] = (0, 0)
        self.kernel_cache_after: tuple[int, int] = (0, 0)

    def _see_evaluator(self, args: tuple) -> None:
        evaluator = args[0]
        if id(evaluator) not in self.evaluators:
            self.evaluators[id(evaluator)] = (evaluator, _cache_counts(evaluator))

    def cache_deltas(self) -> tuple[int, ...]:
        """Summed ``(tree hits, tree misses, tree evictions, share hits,
        share misses)`` over the probed interval."""
        total = [0] * 5
        for evaluator, first in self.evaluators.values():
            for index, (now, then) in enumerate(
                zip(_cache_counts(evaluator), first)
            ):
                total[index] += now - then
        return tuple(total)

    def install(self) -> None:
        import repro.dynamics.system as system
        import repro.gp.engine as engine
        import repro.gp.fitness as fitness
        import repro.gp.parallel as parallel
        import repro.lint.triage as triage
        from repro.dynamics.task import ModelingTask
        from repro.expr.compile import KERNEL_CACHE
        from repro.river.simulator import RiverTask

        rec = self.recorder
        counts = rec.counts
        stats = KERNEL_CACHE.stats
        self.kernel_cache_before = (stats.hits, stats.misses)

        # gp.engine: parent selection and the reproduction operators,
        # as the engine module calls them (hill climbing imports its own
        # operator names, so its moves stay inside engine.local_search).
        for attr in (
            "tournament_select",
            "crossover",
            "subtree_mutation",
            "gaussian_mutation",
            "gaussian_mutation_best_of",
            "replication",
        ):
            rec.wrap(engine, attr, "engine.select")
        rec.wrap(engine, "hill_climb", "engine.local_search")

        # gp.fitness: the scalar and the cohort entry points.
        rec.wrap(
            fitness.GMRFitnessEvaluator,
            "evaluate",
            "fitness.evaluate",
            before=self._see_evaluator,
        )

        def batch_size(args: tuple) -> None:
            self._see_evaluator(args)
            counts["fitness.batch_members"] += len(args[1])

        rec.wrap(
            fitness.GMRFitnessEvaluator,
            "evaluate_batch",
            "fitness.batch",
            before=batch_size,
        )

        # dynamics.integrate: vector rollouts as gp.fitness calls them,
        # and the scalar error stream of plain ODE tasks.
        def batched_steps(args: tuple, rollout) -> None:
            counts["integrate.lane_steps"] += _rows_run(rollout, args[1].shape[1])

        def fused_steps(args: tuple, rollout) -> None:
            batched_steps(args, rollout)
            # Lanes of the padded kernel, padding included.
            counts["integrate.fused_lanes"] += args[1].shape[1]

        rec.wrap(fitness, "batched_euler_rollout", "integrate.batched", after=batched_steps)
        rec.wrap(fitness, "fused_euler_rollout", "integrate.fused", after=fused_steps)
        rec.wrap_stream(ModelingTask, "error_stream", "integrate.scalar", "integrate.scalar_rows")
        # river.simulator: the network-coupled task's error stream.
        rec.wrap_stream(RiverTask, "error_stream", "river.error_stream", "river.rows")

        # dynamics.system -> expr.compile: kernel builds (cache misses).
        rec.wrap(system, "compile_model", "compile.scalar")
        rec.wrap(system, "compile_model_batched", "compile.batched")
        rec.wrap(system, "compile_model_cohort", "compile.cohort")

        # lint.triage: looked up in the module at call time; per-candidate
        # triage_model and the seed check both end in triage_equations.
        rec.wrap(triage, "triage_equations", "triage")

        # gp.checkpoint: envelope writes and resume reads.
        def envelope_bytes(args: tuple, result) -> None:
            counts["checkpoint.bytes"] += os.path.getsize(args[1])

        rec.wrap(engine, "save_checkpoint", "checkpoint.save", after=envelope_bytes)
        rec.wrap(parallel, "load_checkpoint_resilient", "checkpoint.load")

    def uninstall(self) -> None:
        from repro.expr.compile import KERNEL_CACHE

        stats = KERNEL_CACHE.stats
        self.kernel_cache_after = (stats.hits, stats.misses)
        self.recorder.restore()

    def metrics(self, stats, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of the probed interval.

        ``stats`` is the run's :class:`~repro.gp.fitness.EvaluationStats`
        and ``wall_s`` the probed interval's wall time.  Times are given
        as shares of ``wall_s``: self times for spans, the program's own
        phase timers for ``fitness.*_share``.
        """
        rec = self.recorder
        calls, counts = rec.calls, rec.counts

        def share(name: str) -> float:
            return rec.self_s.get(name, 0.0) / wall_s

        evaluations = stats.evaluations
        lane_steps = (
            counts["integrate.lane_steps"]
            + counts["integrate.scalar_rows"]
            + counts["river.rows"]
        )
        tree_hits, tree_misses, tree_evictions, share_hits, share_misses = (
            self.cache_deltas()
        )
        kernel_hits = self.kernel_cache_after[0] - self.kernel_cache_before[0]
        kernel_misses = self.kernel_cache_after[1] - self.kernel_cache_before[1]
        fused_lanes = counts["integrate.fused_lanes"]
        return {
            "engine.select_share": share("engine.select"),
            "engine.local_search_share": share("engine.local_search"),
            "fitness.evaluate_calls": calls["fitness.evaluate"],
            "fitness.evaluate_self_share": share("fitness.evaluate"),
            "fitness.batch_calls": calls["fitness.batch"],
            "fitness.batch_mean_size": _ratio(
                counts["fitness.batch_members"], calls["fitness.batch"]
            ),
            "fitness.batch_self_share": share("fitness.batch"),
            "fitness.evaluations": evaluations,
            "fitness.cache_hit_frac": _ratio(stats.cache_hits, evaluations),
            "fitness.short_circuit_frac": _ratio(stats.short_circuits, evaluations),
            "fitness.step_frac": stats.step_fraction,
            "fitness.batched_frac": _ratio(stats.batched_evaluations, evaluations),
            "fitness.degradations": (
                stats.kernel_fallbacks + stats.fusion_fallbacks + stats.pool_fallbacks
            ),
            "fitness.fill_share": stats.batch_fill / wall_s,
            "fitness.compile_share": stats.compile_time / wall_s,
            "fitness.step_share": stats.step_time / wall_s,
            "fitness.triage_share": stats.triage_time / wall_s,
            "integrate.batched_calls": calls["integrate.batched"],
            "integrate.batched_share": share("integrate.batched"),
            "integrate.fused_calls": calls["integrate.fused"],
            "integrate.fused_share": share("integrate.fused"),
            "integrate.fused_pad_frac": (
                1.0 - stats.fused_columns / fused_lanes if fused_lanes else 0.0
            ),
            "integrate.scalar_share": share("integrate.scalar"),
            "integrate.scalar_rows": counts["integrate.scalar_rows"],
            "integrate.lane_steps": lane_steps,
            "integrate.useful_frac": _ratio(stats.steps_evaluated, lane_steps),
            "compile.scalar_calls": calls["compile.scalar"],
            "compile.scalar_share": share("compile.scalar"),
            "compile.batched_calls": calls["compile.batched"],
            "compile.batched_share": share("compile.batched"),
            "compile.cohort_calls": calls["compile.cohort"],
            "compile.cohort_share": share("compile.cohort"),
            "compile.kernel_cache_hit_frac": _ratio(
                kernel_hits, kernel_hits + kernel_misses
            ),
            "compile.share_hit_frac": _ratio(share_hits, share_hits + share_misses),
            "cache.tree_hit_frac": _ratio(tree_hits, tree_hits + tree_misses),
            "cache.tree_evictions": tree_evictions,
            "triage.calls": calls["triage"],
            "triage.share": share("triage"),
            "triage.skip_frac": _ratio(stats.triage_skips, calls["triage"]),
            "checkpoint.saves": calls["checkpoint.save"],
            "checkpoint.save_share": share("checkpoint.save"),
            "checkpoint.bytes": counts["checkpoint.bytes"],
            "checkpoint.loads": calls["checkpoint.load"],
            "checkpoint.load_share": share("checkpoint.load"),
            "river.error_stream_share": share("river.error_stream"),
            "river.rows": counts["river.rows"],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _cache_counts(evaluator) -> tuple[int, ...]:
    tree = evaluator.cache.stats
    share = evaluator.compiled_cache.stats
    return (tree.hits, tree.misses, tree.evictions, share.hits, share.misses)
