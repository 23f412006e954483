"""Static triage: the semantic lint pass over models and seeds.

Glues the interval pass (:mod:`repro.lint.absint`) and the unit pass
(:mod:`repro.lint.units`) to the concrete artifacts the engine handles:
a :class:`TriageContext` captures everything the analyses need about one
problem -- state/driver value intervals, the clamp band, the step size,
the prior hull of the parameters, and (when the domain is annotated)
per-name units.  Two entry points read it:

* :func:`triage_equations` runs both passes over a system of equations
  and returns the full report: every A rule's diagnostics and the unit
  findings.  ``python -m repro.lint``, :func:`triage_domain`, the
  conformance battery and the engine's check of the expert seed use it.
* :func:`triage_fatal` is the engine's per-candidate check.  Only
  *fatal* findings (rules registered with ``fatal=True``, i.e. A001:
  the RHS is provably NaN for every reachable input) may cause the
  engine to skip a simulation: such a candidate diverges at the first
  step and receives the worst-fitness sentinel either way, so skipping
  is invisible to the search.  Everything else -- saturating updates,
  dead operands, unit clashes -- is diagnostic only, so the engine
  computes A001's condition alone: one ``interval_of`` walk per
  equation with the parameters bound as points, and no walk at all when
  the structure is proven NaN-free on the whole prior hull (the
  transfer functions are inclusion-monotone, so every binding inside
  the hull inherits that proof).  The hull verdict is memoised per
  structure on the context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.expr.ast import Expr
from repro.lint.absint import (
    NAN_ALWAYS,
    NAN_MAYBE,
    NAN_NO,
    AbstractEnv,
    Interval,
    check_rhs,
    interval_of,
    point,
)
from repro.lint.diagnostics import LintReport, Location
from repro.lint.registry import get
from repro.lint.units import Unit, UnitEnv, build_unit_env, parse_unit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domains.registry import DomainSpec
    from repro.dynamics.system import ProcessModel
    from repro.dynamics.task import ModelingTask

_INF = math.inf

#: Bounds for leaves nothing is known about: any finite-or-infinite
#: value, but never NaN (states are clamped, drivers are data).
_ANY_VALUE = Interval(-_INF, _INF, NAN_NO)

#: Hull verdicts a context keeps (first in, first out).  Far above the
#: structures one run meets (a few hundred on the SIR workload), so the
#: memo only bounds the memory of very long campaigns.
HULL_MEMO_SIZE = 4096


@dataclass(frozen=True)
class TriageContext:
    """Everything the semantic passes need to know about one problem.

    ``state_intervals``/``driver_intervals`` feed the interval pass;
    ``param_intervals`` holds prior ranges (domain-level triage) or is
    empty (per-candidate triage binds exact values instead).
    ``param_hull`` holds the prior range of every parameter name a
    candidate can bind (the priors and the ``_R<k>`` revision
    constants) when a domain matches the task, else it is empty; only
    :func:`triage_fatal` reads it, so the reports of
    :func:`triage_equations` do not depend on it.  ``hull_memo`` caches
    :func:`triage_fatal`'s hull verdict per exact structure and parameter
    order (``(structure_key, param_order)``), so a verdict is reused only
    for the tree it was computed on; it is not compared, and ``dataclasses.replace``
    starts a new one.
    ``unit_env``/``expected_units`` are ``None``/empty when the domain
    carries no unit annotations, which disables the unit pass.
    """

    state_intervals: Mapping[str, Interval] = field(default_factory=dict)
    driver_intervals: Mapping[str, Interval] = field(default_factory=dict)
    param_intervals: Mapping[str, Interval] = field(default_factory=dict)
    clamp: "object | None" = None
    dt: float | None = None
    unit_env: UnitEnv | None = None
    expected_units: Mapping[str, "Unit | None"] = field(default_factory=dict)
    annotation_report: LintReport = field(default_factory=LintReport)
    param_hull: Mapping[str, Interval] = field(default_factory=dict)
    hull_memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def env(
        self, params: Mapping[str, Interval] | None = None
    ) -> AbstractEnv:
        return AbstractEnv(
            states=dict(self.state_intervals),
            variables=dict(self.driver_intervals),
            params=dict(params if params is not None else self.param_intervals),
        )


def _state_hull(
    clamp, state_names: Sequence[str], initial: Sequence[float] | None
) -> dict[str, Interval]:
    """Reachable-state intervals: the clamp band, widened to cover the
    initial state (step one integrates from it, clamped or not)."""
    lo = clamp.minimum if clamp is not None else -_INF
    hi = clamp.maximum if clamp is not None else _INF
    intervals: dict[str, Interval] = {}
    for i, name in enumerate(state_names):
        s_lo, s_hi = lo, hi
        if initial is not None:
            s_lo = min(s_lo, initial[i])
            s_hi = max(s_hi, initial[i])
        intervals[name] = Interval(s_lo, s_hi, NAN_NO)
    return intervals


def _driver_intervals_from_data(drivers) -> dict[str, Interval]:
    values = np.asarray(drivers.values, dtype=float)
    intervals: dict[str, Interval] = {}
    for j, name in enumerate(drivers.names):
        column = values[:, j]
        finite = column[~np.isnan(column)]
        has_nan = len(finite) != len(column)
        if len(finite) == 0:
            intervals[name] = Interval(-_INF, _INF, NAN_MAYBE)
            continue
        intervals[name] = Interval(
            float(np.min(finite)),
            float(np.max(finite)),
            NAN_MAYBE if has_nan else NAN_NO,
        )
    return intervals


def _unit_context(
    spec: "DomainSpec", knowledge
) -> tuple[UnitEnv | None, dict[str, Unit | None], LintReport]:
    """Build the unit environment from a domain's annotations.

    Returns ``(None, {}, report)`` when the domain is unannotated (no
    ``state_units``): the unit pass is opt-in per domain.
    """
    report = LintReport()
    if spec.state_units is None:
        return None, {}, report
    annotations: dict[str, str] = dict(spec.state_units)
    for name, text in (spec.var_units or {}).items():
        annotations[name] = text
    for pname, prior in knowledge.priors.items():
        annotations[pname] = prior.unit
    env, env_report = build_unit_env(
        annotations, Location(obj=f"domain {spec.name!r} annotations")
    )
    report.extend(env_report)
    expected: dict[str, Unit | None] = {}
    try:
        per_time = parse_unit(spec.time_unit)
    except Exception:
        per_time = None
    for state in spec.state_names:
        state_unit = env.units.get(state)
        if state_unit is None or per_time is None:
            expected[state] = None
        else:
            expected[state] = state_unit / per_time
    return env, expected, report


def _prior_intervals(knowledge) -> dict[str, Interval]:
    """Each prior's ``[minimum, maximum]``, and ``rconst_bounds`` for
    the ``_R<k>`` revision-constant slots."""
    params: dict[str, Interval] = {}
    for pname, prior in knowledge.priors.items():
        params[pname] = Interval(prior.minimum, prior.maximum, NAN_NO)
    r_lo, r_hi = knowledge.rconst_bounds
    for k in range(32):  # more slots than any candidate ever uses
        params[f"_R{k}"] = Interval(r_lo, r_hi, NAN_NO)
    return params


def context_for_domain(spec: "DomainSpec") -> TriageContext:
    """Domain-level context: prior parameter ranges, declared driver
    bounds, and the clamp band (used to prove the *seed* clean)."""
    knowledge = spec.make_knowledge()
    params = _prior_intervals(knowledge)
    drivers: dict[str, Interval] = {}
    for vname in spec.var_order:
        bound = (spec.var_bounds or {}).get(vname)
        drivers[vname] = (
            Interval(bound[0], bound[1], NAN_NO)
            if bound is not None
            else _ANY_VALUE
        )
    unit_env, expected, annotation_report = _unit_context(spec, knowledge)
    return TriageContext(
        state_intervals=_state_hull(spec.clamp, spec.state_names, None),
        driver_intervals=drivers,
        param_intervals=params,
        clamp=spec.clamp,
        dt=None,
        unit_env=unit_env,
        expected_units=expected,
        annotation_report=annotation_report,
    )


def context_for_task(
    task: "ModelingTask", spec: "DomainSpec | None" = None
) -> TriageContext:
    """Per-task context for the engine's candidate triage.

    Driver intervals come from the actual driver table, state intervals
    from the clamp band hulled with the initial state, ``dt``/clamp from
    the task.  Units and the parameters' prior hull resolve through
    ``spec`` only when its declared states and drivers match the task (a
    registered domain name on the config is not proof the engine runs
    that domain).
    """
    unit_env: UnitEnv | None = None
    expected: dict[str, Unit | None] = {}
    annotation_report = LintReport()
    param_hull: dict[str, Interval] = {}
    if (
        spec is not None
        and tuple(spec.state_names) == tuple(task.state_names)
        and tuple(spec.var_order) == tuple(task.var_order)
    ):
        knowledge = spec.make_knowledge()
        unit_env, expected, annotation_report = _unit_context(spec, knowledge)
        param_hull = _prior_intervals(knowledge)
    return TriageContext(
        state_intervals=_state_hull(
            task.clamp, task.state_names, task.initial_state
        ),
        driver_intervals=_driver_intervals_from_data(task.drivers),
        param_intervals={},
        clamp=task.clamp,
        dt=task.dt,
        unit_env=unit_env,
        expected_units=expected,
        annotation_report=annotation_report,
        param_hull=param_hull,
    )


def triage_equations(
    equations: Mapping[str, Expr],
    context: TriageContext,
    params: Mapping[str, float] | None = None,
    obj: str = "equation",
) -> LintReport:
    """Run the A and U passes over a system of d(state)/dt equations.

    With ``params`` given, parameters bind to those exact values
    (per-candidate triage); otherwise the context's prior ranges apply.
    """
    report = LintReport()
    param_intervals: Mapping[str, Interval] | None = None
    if params is not None:
        param_intervals = {
            name: point(float(value)) for name, value in params.items()
        }
    env = context.env(param_intervals)
    for state, expr in equations.items():
        location = Location(obj=f"{obj} {state!r}")
        report.extend(
            check_rhs(
                expr,
                env,
                state=state,
                clamp=context.clamp,
                dt=context.dt,
                location=location,
            )
        )
        if context.unit_env is not None:
            __, unit_report = _check_equation_units(
                expr, context, state, location
            )
            report.extend(unit_report)
    return report


def _check_equation_units(
    expr: Expr, context: TriageContext, state: str, location: Location
):
    from repro.lint.units import check_units

    return check_units(
        expr,
        context.unit_env,
        expected=context.expected_units.get(state),
        location=location,
    )


def triage_fatal(
    model: "ProcessModel",
    params: Sequence[float],
    context: TriageContext,
) -> bool:
    """Whether A001 fires for ``model`` bound to ``params``: some
    right-hand side is provably NaN for every reachable input.

    Equals ``bool(fatal_findings(triage_equations(model.equations,
    context, params=dict(zip(model.param_order, params)))))`` without
    building the report: A001 is the only fatal rule, and its condition
    is one ``interval_of`` walk per equation with the parameters bound
    as points.  A binding inside a structure's prior hull skips even
    that walk when the hull verdict is NaN-free (see
    :func:`_hull_bounds`).
    """
    bounds = _hull_bounds(model, context)
    if bounds is not None and all(
        lo <= value <= hi for value, (lo, hi) in zip(params, bounds)
    ):
        return False
    env = context.env(
        {
            name: point(float(value))
            for name, value in zip(model.param_order, params)
        }
    )
    return any(
        interval_of(expr, env).nan == NAN_ALWAYS
        for expr in model.equations.values()
    )


def _hull_bounds(
    model: "ProcessModel", context: TriageContext
) -> tuple[tuple[float, float], ...] | None:
    """``model``'s parameter hull in ``param_order`` if every right-hand
    side is NaN-free with the parameters bound to it, else ``None``.

    The interval transfer functions are inclusion-monotone, so a point
    binding inside the hull can only narrow a NaN-free verdict: no such
    binding is fatal.  ``None`` (a parameter without a prior, or a hull
    verdict of maybe or always NaN) leaves the decision to the point
    walk.  Memoised per ``(structure_key, param_order)`` in
    ``context.hull_memo``; the structure key is exact, so two trees share
    a verdict only if the interval walk would see the same tree.
    """
    key = (model.structure_key(), model.param_order)
    memo = context.hull_memo
    if key in memo:
        return memo[key]
    hull = context.param_hull
    bounds = None
    if all(name in hull for name in model.param_order):
        env = context.env(hull)
        if all(
            interval_of(expr, env).nan == NAN_NO
            for expr in model.equations.values()
        ):
            bounds = tuple(
                (hull[name].lo, hull[name].hi) for name in model.param_order
            )
    if len(memo) >= HULL_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = bounds
    return bounds


def triage_domain(spec: "DomainSpec") -> LintReport:
    """Triage a registered domain's expert seed (annotations included).

    This is what ``python -m repro.lint --domain NAME`` adds to the
    syntactic passes and what the conformance battery holds every
    domain to: a seed that provably saturates, divides by a banded
    denominator, or mixes units is a mis-specified domain.
    """
    context = context_for_domain(spec)
    knowledge = spec.make_knowledge()
    report = LintReport()
    report.extend(context.annotation_report)
    report.extend(
        triage_equations(
            knowledge.seed_equations, context, obj="seed equation"
        )
    )
    return report


def fatal_findings(report: LintReport) -> list:
    """The subset of findings whose rules are registered as fatal."""
    return [d for d in report if get(d.rule).fatal]
