"""Differential oracle harness: every evaluation path against the interpreter.

Draws (raw trees from :mod:`tests.expr.strategies` with ordinary or
overflow-scale bindings, and derivations of every registered domain
pushed through operator chains), path runners and comparators for the
properties in ``tests/test_oracle.py``.  The oracle table:

kernel (one step): interpreter vs ``simplify``'d interpreter, and
  scalar kernel across ``simplify``, on finite inputs -- equal or both
  NaN; interpreter vs scalar ``compile_model``, and station
  ``make``/``hoist``/``station`` vs scalar -- bitwise, NaN as one
  marker.
rollout: ``euler_steps(use_compiled=False)`` vs compiled, every
  parameter column under custom and infinite clamps, ``dt`` and NaN
  drivers -- bitwise, NaN as one marker, same raise.
stream: ``ModelingTask.error_stream`` compiled and interpreted vs
  errors built from ``euler_steps(use_compiled=False)`` and the
  observations, on the rollout cases, columns targeting each state in
  turn and driver columns that need ``select`` -- per-row bits, the
  raise's row, type and message.
evaluator: sequential ``evaluate`` vs ``evaluate_batch`` (whole cohort
  or in chunks) vs a reference Algorithm 1 replayed over each member's
  compiled error stream, under the tree cache, ES thresholds with a
  finite marker, three extrapolators and poisoned drivers --
  :func:`assert_equivalent` (fitness, ``fully_evaluated``, marker,
  Algorithm 1 and tree-cache counters, all equal); seeded engine runs
  under the batch knobs -- the champion re-scored with ES off, compiled
  and through the interpreter, equals its fitness.
network: ``RiverTask.error_stream`` vs ``stepped_errors`` compiled
  (full horizon) and interpreted (40 days) -- per-day bits, raise type
  and message.
triage: ``triage_fatal`` vs the fatal findings of the full
  ``triage_equations`` report, on derivations of every domain and of the
  divergence-heavy problem, at prior and far-out parameter scales, and
  on the A001 fixture -- equal verdicts; a structure the hull memo
  clears vs points drawn inside its hull -- never fatal.

Every compiled path takes ``exp``/``log`` from libm and performs the
interpreter's operations on the same operands in the same order, so
kernels and rollouts match the interpreter bit for bit.  A NaN's sign
and payload are compared only for ``log`` of a signed NaN read as a
parameter, driver and state (each kernel form takes the magnitude with
``abs``, as the interpreter does); elsewhere every NaN is one marker.
No level allows a tolerance.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import random
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from hypothesis import strategies as st

from repro.domains import available_domains, get_domain
from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    euler_steps,
    simulate,
)
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import BAD_FITNESS, ModelingTask
from repro.expr import ast
from repro.expr.ast import Const, Expr, Ext, Param, State, Var
from repro.expr.compile import compile_model, compile_station_kernel
from repro.expr.evaluate import evaluate
from repro.expr.simplify import simplify
from repro.gp.config import GMRConfig
from repro.gp.fitness import (
    GMRFitnessEvaluator,
    linear_extrapolation,
    pessimistic_extrapolation,
)
from repro.gp.init import random_individual
from repro.gp.knowledge import (
    ExtensionSpec,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
)
from repro.gp.local_search import deletion, insertion
from repro.gp.operators import crossover, gaussian_mutation, subtree_mutation
from repro.lint.triage import (
    _prior_intervals,
    context_for_task,
    fatal_findings,
    triage_equations,
)
from repro.river.dataset import load_dataset
from repro.river.grammar_def import river_knowledge
from benchmarks.test_triage_savings import divergence_heavy_problem
from tests.expr.strategies import (
    PARAM_NAMES,
    STATE_NAMES,
    VAR_NAMES,
    bindings,
    expressions,
    huge_bindings,
)

#: Driver rows of a kernel case, and rows of a rollout, checked against
#: the interpreter.
INTERP_ROWS = 8
ORACLE_ROWS = 40
HUGE = 1e308
INFINITE = ClampSpec(minimum=-math.inf, maximum=math.inf)

# -- comparators -------------------------------------------------------


def bits(values: Iterable[float]) -> list[bytes]:
    """Exact bit patterns."""
    return [struct.pack("<d", value) for value in values]


def nan_bits(values: Iterable[float]) -> list[bytes | None]:
    """Exact bit patterns, with every NaN mapped to one marker."""
    return [None if math.isnan(v) else struct.pack("<d", v) for v in values]


def same_value(got: float, want: float) -> bool:
    """Equal, or both NaN."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want


def drain(stream: Iterator, limit: int | None = None):
    """A stream's items (up to ``limit``) and what it raised, as
    ``(type, message)``; the stream is closed either way."""
    items: list = []
    try:
        for item in stream:
            items.append(item)
            if len(items) == limit:
                break
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return items, (type(error), str(error))
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    return items, None


def outcome(stream, limit: int | None = None):
    """Bit patterns of a stream's values, plus what it raised."""
    values, error = drain(stream, limit)
    return bits(values), error



# -- draws -------------------------------------------------------------


def lists(elements: st.SearchStrategy, size: int) -> st.SearchStrategy:
    return st.lists(elements, min_size=size, max_size=size)


def _libm_traps(op, vectorised) -> list[float]:
    """Arguments at which NumPy's ``op`` and libm's differ in the last ulp."""
    draws = np.random.default_rng(5).uniform(0.5, 2.0, 4000)
    return draws[vectorised(draws) != [op(x) for x in draws]][:4].tolist()


#: Driver rows whose ``exp(v0)`` and ``log(v1)`` differ between NumPy and
#: libm: a vector path that calls NumPy's cannot match the scalar step.
LIBM_TRAP_ROWS = tuple(
    zip(_libm_traps(math.exp, np.exp), _libm_traps(math.log, np.log))
)

#: ``inf - inf``: the canonical provably-NaN subexpression.
BLOWN = ast.mul(Const(1e300), Const(1e300))
NAN_EXPR = ast.sub(BLOWN, BLOWN)


@dataclass(frozen=True)
class KernelCase:
    """One step's inputs for a cohort of structures.

    ``members`` are ``(equations, param_order)`` pairs over one driver
    and state order; member 0 is also checked across ``simplify``.
    Member ``m`` owns lanes ``[m * lanes, (m + 1) * lanes)`` of
    ``params`` (its first ``len(param_order)`` entries) and ``states``,
    given lane by lane; each of ``rows`` is one driver row.
    """

    members: tuple[tuple[tuple[Expr, ...], tuple[str, ...]], ...]
    var_order: tuple[str, ...]
    state_order: tuple[str, ...]
    params: tuple[tuple[float, ...], ...]
    states: tuple[tuple[float, ...], ...]
    rows: tuple[tuple[float, ...], ...]
    lanes: int


def padded_lanes(columns, lanes: int, pad: str) -> list:
    """``columns`` followed by padding lanes: clones of the first column
    or all-NaN."""
    filler = columns[0] if pad == "clone" else (math.nan,) * len(columns[0])
    return list(columns) + [filler] * (lanes - len(columns))


@st.composite
def ast_kernel_cases(draw) -> KernelCase:
    """Two random trees as a three-member cohort (the second under the
    reversed parameter order, the third reusing the first tree's object
    under it), over K ordinary or huge lanes padded by clones or NaN,
    and a driver block around the first lane's drivers: sign and order
    swaps, overflow, NaN, signed zeros, the libm traps and moderate
    values (where NumPy's exp/log can differ from libm's)."""
    trees = draw(expressions()), draw(expressions(max_leaves=12))
    lanes = draw(st.sampled_from((1, 3, 8)))
    live = draw(st.integers(1, lanes))
    columns = draw(lists(st.one_of(bindings(), huge_bindings()), live))
    pad = draw(st.sampled_from(("clone", "nan")))
    back = PARAM_NAMES[::-1]
    members = (((trees[0],), PARAM_NAMES), ((trees[1],), back), ((trees[0],), back))
    params = [tuple(p[n] for n in PARAM_NAMES) for p, __, __ in columns]
    states = [tuple(s[n] for n in STATE_NAMES) for __, __, s in columns]
    v0, v1 = (columns[0][1][n] for n in VAR_NAMES)
    rows = (
        (v0, v1), (-v1, v0), (v0 * 1e303, v1 * 1e303), (math.nan, v1), (0.0, -0.0),
        *LIBM_TRAP_ROWS,
        *((v0 * 1e-6 + k / 7, v1 * 1e-6 - k / 5) for k in range(1, 9)),
    )
    return KernelCase(
        members, VAR_NAMES, STATE_NAMES,
        tuple(padded_lanes(params, lanes, pad) * 3),
        tuple(padded_lanes(states, lanes, pad) * 3),
        rows, lanes,
    )


def named_case(expr, states=(1.0,), params=None, rows=((0.0, 0.0),)) -> KernelCase:
    """A one-member case over raw-tree names: one lane per state value
    and parameter column (zeros by default)."""
    params = list(params or [(0.0,) * len(PARAM_NAMES)])
    lanes = max(len(states), len(params))
    states = [(s,) for s in states] * (lanes // len(states))
    return KernelCase(
        (((expr,), PARAM_NAMES),), VAR_NAMES, STATE_NAMES,
        tuple(params * (lanes // len(params))), tuple(states), rows, lanes
    )


DOMAINS = tuple(sorted(available_domains()))

OPERATORS = ("gaussian", "subtree", "crossover", "insertion", "deletion")

CHAIN_CONFIG = GMRConfig(population_size=4, max_generations=1, min_size=1, max_size=14)

#: Parameter scales: the prior itself and far outside it (the +-1e150
#: scales overflow some candidates into NaN).
SCALES = (1.0, -1.0, 1e-6, 7.0, 50.0, 1e3, 1e150, -1e150)


@functools.lru_cache(maxsize=None)
def domain_setup(name: str):
    spec = get_domain(name)
    knowledge = spec.make_knowledge()
    return spec, knowledge, build_grammar(knowledge)


@functools.lru_cache(maxsize=None)
def domain_task(name: str) -> ModelingTask:
    return get_domain(name).mini_task()


def apply(op, individual, other, knowledge, grammar, rng):
    """One operator step; operators that find no move keep the input."""
    if op == "gaussian":
        return gaussian_mutation(individual, knowledge, CHAIN_CONFIG, rng)
    if op == "subtree":
        child = subtree_mutation(individual, grammar, CHAIN_CONFIG, rng)
    elif op == "crossover":
        pair = crossover(individual, other, grammar, CHAIN_CONFIG, rng)
        child = None if pair is None else pair[rng.randrange(2)]
    elif op == "insertion":
        child = insertion(individual, grammar, CHAIN_CONFIG, rng)
    else:
        child = deletion(individual, CHAIN_CONFIG, rng)
    return individual if child is None else child


def derive(knowledge, grammar, seed: int, chain: Iterable[str]):
    """A random individual pushed through a chain of operators."""
    rng = random.Random(seed)
    individual = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
    other = random_individual(grammar, knowledge, CHAIN_CONFIG, rng)
    for op in chain:
        individual = apply(op, individual, other, knowledge, grammar, rng)
    return individual


@st.composite
def derivations(draw, domain: str):
    """A derived model of ``domain`` and its parameter vector."""
    spec, knowledge, grammar = domain_setup(domain)
    seed = draw(st.integers(0, 2**20))
    chain = draw(st.lists(st.sampled_from(OPERATORS), max_size=4))
    individual = derive(knowledge, grammar, seed, chain)
    return individual.phenotype(spec.state_names, spec.var_order)


def scaled(vector, scale: float, length: int = 0) -> tuple[float, ...]:
    """``vector`` times ``scale``, zero-filled to ``length`` entries."""
    return tuple(v * scale for v in vector) + (0.0,) * (length - len(vector))


@st.composite
def derivation_kernel_cases(draw, domain: str) -> KernelCase:
    """Two derivations of ``domain`` as a three-member cohort (the third
    is the first under its reversed parameter order), parameters and
    states scaled lane by lane, over a window of the domain's drivers
    plus NaN, zero and huge rows."""
    first, vector = draw(derivations(domain))
    second, other = draw(derivations(domain))
    lanes = draw(st.sampled_from((1, 3, 8)))
    scales = draw(lists(st.sampled_from(SCALES), lanes))
    state_scales = draw(lists(st.sampled_from((1.0, 1e-6, 1e3, -1.0)), lanes))
    task = domain_task(domain)
    table = task.drivers.select(first.var_order).values
    start = draw(st.integers(0, len(table) - 48))
    width = table.shape[1]
    huge = tuple(1e300 * (-1) ** j for j in range(width))
    rows = [(math.nan,) * width, (0.0,) * width, huge]
    members = (
        (tuple(first.equations.values()), first.param_order),
        (tuple(second.equations.values()), second.param_order),
        (tuple(first.equations.values()), first.param_order[::-1]),
    )
    n_params = max(len(order) for __, order in members)
    return KernelCase(
        members, first.var_order, first.state_names,
        tuple(scaled(v, s, n_params) for v in (vector, other, vector) for s in scales),
        tuple(scaled(task.initial_state, s) for __ in members for s in state_scales),
        tuple(rows + table[start : start + 48].tolist()),
        lanes,
    )


# -- kernel level ------------------------------------------------------


def check_kernel(case: KernelCase, compare=nan_bits) -> None:
    """Every kernel form of every member against the interpreter, the
    results mapped through ``compare`` (:func:`bits` compares a NaN's
    sign and payload too)."""
    lanes = case.lanes
    P = np.array(case.params, dtype=float).T
    S = np.array(case.states, dtype=float).T
    table = np.array(case.rows, dtype=float)
    for m, (exprs, order) in enumerate(case.members):
        lane = slice(m * lanes, (m + 1) * lanes)
        _check_member(
            case, exprs, order, P[: len(order), lane], S[:, lane], table, m, compare
        )


def _lanes_rows(P, S, table):
    for k in range(P.shape[1]):
        Pk, Sk = tuple(P[:, k].tolist()), tuple(S[:, k].tolist())
        for t, row in enumerate(table.tolist()):
            yield k, t, Pk, row, Sk


def _interpret(exprs, orders, *values) -> list[float]:
    env = [dict(zip(names, vals)) for names, vals in zip(orders, values)]
    return [evaluate(e, *env) for e in exprs]


def _check_member(case, exprs, order, P, S, table, member, compare) -> None:
    """One member's scalar and station kernels lane by lane (and across
    ``simplify`` for member 0)."""
    orders = (order, case.var_order, case.state_order)
    scalar = compile_model(exprs, *orders)
    for __, __, Pk, row, Sk in _lanes_rows(P, S, table[:INTERP_ROWS]):
        got, want = scalar(Pk, row, Sk), _interpret(exprs, orders, Pk, row, Sk)
        assert compare(got) == compare(want), (got, want)
    # Station 0 reads the rows in order, station 1 in reverse with the
    # drivers reversed too.
    station = compile_station_kernel(exprs, *orders)
    backwards = table[::-1, ::-1]
    block = np.stack([table.T, backwards.T], axis=1)
    for k in range(P.shape[1]):
        Pk, Sk = tuple(P[:, k].tolist()), tuple(S[:, k].tolist())
        hoist, step = station.make(Pk)
        for rows, frontier in zip((table, backwards), hoist(block)):
            for row, F in zip(rows.tolist(), frontier):
                assert compare(step(F, *Sk)) == compare(scalar(Pk, row, Sk))
    if member == 0:
        _check_simplify(exprs, orders, scalar, P, S, table)


def _check_simplify(exprs, orders, scalar, P, S, table) -> None:
    """``simplify`` keeps every value on finite inputs (it assumes
    finite leaves: ``x - x -> 0`` on a leaf)."""
    simple = [simplify(e) for e in exprs]
    simple_scalar = compile_model(simple, *orders)
    for __, t, Pk, row, Sk in _lanes_rows(P, S, table):
        if not all(map(math.isfinite, (*Pk, *row, *Sk))):
            continue
        want = scalar(Pk, row, Sk)
        assert all(map(same_value, simple_scalar(Pk, row, Sk), want))
        if t < INTERP_ROWS:
            want = _interpret(exprs, orders, Pk, row, Sk)
            got = _interpret(simple, orders, Pk, row, Sk)
            assert all(map(same_value, got, want)), f"simplify changed {exprs}"


# -- rollout level -----------------------------------------------------


def logistic_model() -> ProcessModel:
    """dB/dt = r*B - d*B*B + c*Vx: growth, crowding, and an input flux."""
    B = State("B")
    growth = ast.sub(ast.mul(Param("r"), B), ast.mul(Param("d"), ast.mul(B, B)))
    return ProcessModel.from_equations(
        {"B": ast.add(growth, ast.mul(Param("c"), Var("Vx")))}, var_order=("Vx",)
    )


def decay_model() -> ProcessModel:
    """dB/dt = -k*B + Vx: different shape, same var/state signature."""
    decay = ast.mul(ast.mul(Const(-1.0), Param("k")), State("B"))
    return ProcessModel.from_equations(
        {"B": ast.add(decay, Var("Vx"))}, var_order=("Vx",)
    )


def poison_model() -> ProcessModel:
    """dB/dt = p*Vx*B*B - q*Vx*B*B: with p = q = 1e308 the products
    overflow to inf wherever ``Vx != 0`` and their difference is NaN."""
    term = ast.mul(ast.mul(Var("Vx"), State("B")), State("B"))
    return ProcessModel.from_equations(
        {"B": ast.sub(ast.mul(Param("p"), term), ast.mul(Param("q"), term))},
        var_order=("Vx",),
    )


def wavy_drivers(n: int = 60) -> DriverTable:
    day = np.arange(n, dtype=float)
    return DriverTable.from_mapping(
        {"Vx": 1.0 + 0.5 * np.sin(2 * np.pi * day / 17.0)}
    )


def spike_drivers(n: int, row: int | None) -> DriverTable:
    """``Vx`` zero except for a one at ``row`` (all ones if None)."""
    vx = np.ones(n) if row is None else np.eye(n)[row]
    return DriverTable.from_mapping({"Vx": vx})


def uniform_columns(model: ProcessModel, count: int, seed: int, high: float):
    rng = random.Random(seed)
    return [
        tuple(rng.uniform(0.0, high) for _ in model.param_order)
        for _ in range(count)
    ]


@dataclass(frozen=True)
class RolloutCase:
    """Rollout inputs: each model of ``models`` integrates each of its
    parameter vectors ``columns[m]`` from ``initial_state``."""

    models: tuple[ProcessModel, ...]
    columns: tuple[tuple[tuple[float, ...], ...], ...]
    drivers: DriverTable
    initial_state: tuple[float, ...] = (2.0,)
    dt: float = 1.0
    clamp: ClampSpec = ClampSpec()


@st.composite
def derivation_rollout_cases(draw, domain: str) -> RolloutCase:
    """One to three derivations of ``domain`` over a window of its mini
    task, some columns far outside the prior, optionally a NaN driver
    value, a custom or infinite clamp and a half step."""
    task = domain_task(domain)
    models, columns = [], []
    for __ in range(draw(st.integers(1, 3))):
        model, vector = draw(derivations(domain))
        models.append(model)
        scales = draw(st.lists(st.sampled_from(SCALES), min_size=1, max_size=4))
        columns.append(tuple(scaled(vector, s) for s in scales))
    start = draw(st.integers(0, task.n_cases - 96))
    values = task.drivers.values[start : start + 96].copy()
    if draw(st.booleans()):
        column = draw(st.integers(0, values.shape[1] - 1))
        values[draw(st.integers(0, 95)), column] = math.nan
    return RolloutCase(
        tuple(models),
        tuple(columns),
        DriverTable(task.drivers.names, values),
        task.initial_state,
        dt=draw(st.sampled_from((1.0, 0.5))),
        clamp=draw(st.sampled_from((task.clamp, ClampSpec(0.5, 3.0), INFINITE))),
    )


def check_rollout(case: RolloutCase) -> None:
    """Every column's compiled Euler rollout against the interpreter's
    over the first :data:`ORACLE_ROWS` rows: same states, same raise."""
    drivers = case.drivers.slice(0, min(ORACLE_ROWS, len(case.drivers)))
    steps = dict(dt=case.dt, clamp=case.clamp)
    for model, columns in zip(case.models, case.columns):
        for vector in columns:
            _check_interpreter(model, vector, drivers, case.initial_state, steps)


def _check_interpreter(model, vector, drivers, initial, steps) -> None:
    compiled, error = drain(euler_steps(model, vector, drivers, initial, **steps))
    oracle, oracle_error = drain(
        euler_steps(model, vector, drivers, initial, use_compiled=False, **steps)
    )
    assert (error and error[0]) == (oracle_error and oracle_error[0])
    assert len(compiled) == len(oracle)
    for got, want in zip(compiled, oracle):
        assert nan_bits(got) == nan_bits(want), (got, want)


# -- stream level ------------------------------------------------------


def two_state_model() -> ProcessModel:
    """dB/dt logistic, dZ/dt = p*Vx*Z*Z - q*Vx*Z*Z: with p = q = 1e308
    the non-target state ``Z`` turns NaN wherever ``Vx != 0``."""
    B, Z = State("B"), State("Z")
    logistic = logistic_model().equations["B"]
    term = ast.mul(ast.mul(Var("Vx"), Z), Z)
    poison = ast.sub(ast.mul(Param("p"), term), ast.mul(Param("q"), term))
    return ProcessModel.from_equations({"B": logistic, "Z": poison}, ("Vx",))


def reference_errors(model, vector, drivers, initial, observed, target, steps):
    """Squared errors of state ``target`` against ``observed``, built from
    the interpreter's :func:`euler_steps`: it raises where they raise, or
    where the target state is not finite."""
    index = model.state_names.index(target)
    states = euler_steps(model, vector, drivers, initial, use_compiled=False, **steps)
    for state, want in zip(states, observed):
        predicted = state[index]
        if not math.isfinite(predicted):
            raise SimulationDiverged("predicted value is not finite")
        error = predicted - want
        yield error * error


def check_stream(case: RolloutCase) -> None:
    """Every column's ``ModelingTask.error_stream``, compiled and
    interpreted, against :func:`reference_errors` over the first
    :data:`ORACLE_ROWS` rows: per-row bits, and the row, type and
    message of the raise.  Column ``k`` of a model targets state
    ``k // 2`` (modulo the state count), and an odd column reads the
    driver columns reversed, so the stream must ``select`` them."""
    drivers = case.drivers.slice(0, min(ORACLE_ROWS, len(case.drivers)))
    observed = (1.0 + 0.5 * np.sin(np.arange(len(drivers)) / 3.0)).tolist()
    steps = dict(dt=case.dt, clamp=case.clamp)
    reversed_drivers = drivers.select(drivers.names[::-1])
    for model, columns in zip(case.models, case.columns):
        names = model.state_names
        for k, vector in enumerate(columns):
            target = names[k // 2 % len(names)]
            task = ModelingTask(
                reversed_drivers if k % 2 else drivers,
                observed, target, names, case.initial_state, **steps,
            )
            want = outcome(reference_errors(
                model, vector, drivers, case.initial_state, observed, target, steps
            ))
            for use_compiled in (True, False):
                got = outcome(task.error_stream(model, vector, use_compiled))
                assert got == want, (target, use_compiled)


# -- evaluator level ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def toy_knowledge() -> PriorKnowledge:
    """A small synthetic model-revision problem.

    The hidden truth is ``dB/dt = B * (mu - loss) + 0.5 * Vx``; the seed
    omits the ``0.5 * Vx`` input flux, so revision has a real,
    recoverable target.
    """
    seed = ast.mul(State("B"), ast.sub(Param("mu"), Param("loss")))
    return PriorKnowledge(
        seed_equations={"B": Ext("Ext1", seed)},
        priors={
            "mu": ParameterPrior("mu", 0.10, 0.0, 0.5),
            "loss": ParameterPrior("loss", 0.12, 0.0, 0.5),
        },
        extensions=[ExtensionSpec("Ext1", ("Vx",))],
        rconst_bounds=(-10.0, 10.0),
    )


@functools.lru_cache(maxsize=None)
def toy_task() -> ModelingTask:
    rng = np.random.default_rng(0)
    n = 160
    day = np.arange(n, dtype=float)
    vx = 1.0 + 0.5 * np.sin(2 * np.pi * day / 40.0) + rng.normal(0, 0.05, n)
    drivers = DriverTable.from_mapping({"Vx": vx})
    growth = ast.mul(State("B"), ast.sub(Param("mu"), Param("loss")))
    truth = ProcessModel.from_equations(
        {"B": ast.add(growth, ast.mul(Const(0.5), Var("Vx")))},
        var_order=("Vx",),
    )
    clamp = ClampSpec(minimum=1e-6, maximum=1e6)
    observed = simulate(truth, (0.15, 0.10), drivers, (2.0,), clamp=clamp)[:, 0]
    return ModelingTask(
        drivers=drivers,
        observed=observed,
        target_state="B",
        state_names=("B",),
        initial_state=(2.0,),
    )


SMALL_CONFIG = GMRConfig(
    population_size=10,
    max_generations=3,
    min_size=2,
    max_size=10,
    elite_size=1,
    tournament_size=3,
    local_search_steps=1,
    sigma_rampdown_generations=1,
)


def make_cohort(
    grammar, knowledge, config, seed, size=40, duplicates=8, variants=3
):
    """A mixed cohort: random structures, Gaussian variants, duplicates.

    The Gaussian variants share their parent's structure with distinct
    parameter vectors, so they share compiled kernels (random
    individuals rarely collide on structure); the duplicates hit the
    tree cache.
    """
    rng = random.Random(seed)
    base = [random_individual(grammar, knowledge, config, rng) for _ in range(size)]
    cohort = list(base)
    for parent in base[: size // 4]:
        for _ in range(variants):
            cohort.append(gaussian_mutation(parent, knowledge, config, rng, 1.0))
    cohort.extend(copy.deepcopy(cohort[:duplicates]))
    return cohort


ALGORITHM_1_COUNTERS = (
    "evaluations", "cache_hits", "short_circuits", "full_evaluations",
    "divergences", "steps_evaluated", "steps_possible",
)


def assert_equivalent(ev_scalar, ev_batched, pop_scalar, pop_batched):
    """The evaluators said the same: fitness, flags, marker, Algorithm 1
    and tree-cache counters, all equal."""
    assert same_value(ev_batched.best_prev_full, ev_scalar.best_prev_full)
    for a, b in zip(pop_scalar, pop_batched, strict=True):
        assert a.fully_evaluated == b.fully_evaluated
        assert same_value(b.fitness, a.fitness), (a.fitness, b.fitness)
    for name in ALGORITHM_1_COUNTERS:
        assert getattr(ev_scalar.stats, name) == getattr(ev_batched.stats, name), name
    for name in ("hits", "misses", "evictions"):
        cache = ev_scalar.cache.stats, ev_batched.cache.stats
        assert getattr(cache[0], name) == getattr(cache[1], name), name


def wobbly_extrapolation(fitness: float, cases_done: int, total: int) -> float:
    """A pure extrapolator that is not monotone in the partial RMSE."""
    if not math.isfinite(fitness):
        return fitness
    return fitness * (1.0 + 0.9 * math.cos(fitness + cases_done))


EXTRAPOLATORS = {
    "linear": linear_extrapolation,
    "pessimistic": pessimistic_extrapolation,
    "non-monotone": wobbly_extrapolation,
}


def marker_for(task, config, cohort) -> float:
    """A finite starting ``best_prev_full`` that a quarter of the cohort
    beats, so members lower the marker while the cohort is scored."""
    full = dataclasses.replace(config, es_threshold=None)
    reference = GMRFitnessEvaluator(task=task, config=full)
    scores = map(reference.evaluate, copy.deepcopy(cohort))
    fitnesses = sorted(fitness for fitness in scores if fitness < 1e9)
    return fitnesses[len(fitnesses) // 4] if fitnesses else 1.0


def reference_algorithm_1(task, config, extrapolate, marker, cohort):
    """Algorithm 1 replayed in cohort order over each member's whole
    compiled error stream, with a plain dict as the tree cache: the
    ``(fitness, fully_evaluated)`` of every member and the final marker.
    """
    cache: dict = {}
    best = marker
    threshold = config.es_threshold
    total = task.n_cases
    outcomes = []
    for individual in cohort:
        model, params = individual.phenotype(task.state_names, task.var_order)
        key = None
        if config.use_tree_cache:
            key = (model.structure_key(), params)
            if key in cache:
                outcomes.append((cache[key], True))
                continue
        errors, raised = drain(task.error_stream(model, params))
        if raised is not None:
            assert issubclass(raised[0], (SimulationDiverged, OverflowError))
        outcome, sse = None, 0.0
        for cases, error in enumerate(errors, 1):
            sse += error
            partial = math.sqrt(sse / cases)
            if threshold is not None and cases < total and partial > best * threshold:
                estimate = extrapolate(partial, cases, total)
                if estimate > best:
                    outcome = (estimate, False)
                    break
        if outcome is None and raised is not None:
            outcome = (BAD_FITNESS, True)
        elif outcome is None and errors and math.isfinite(sse):
            outcome = (math.sqrt(sse / total), True)
            best = min(best, outcome[0])
        elif outcome is None:
            # An empty or non-finite sum scores BAD_FITNESS, uncached.
            outcomes.append((BAD_FITNESS, True))
            continue
        if key is not None and outcome[1]:
            cache[key] = outcome[0]
        outcomes.append(outcome)
    return outcomes, best


@dataclass(frozen=True)
class EvaluatorCase:
    """A cohort of a domain (or the toy problem) and the settings it is
    scored under; ``marker`` starts from a finite ``best_prev_full``,
    ``nan_row`` poisons the first driver there, and ``chunk`` hands the
    cohort to ``evaluate_batch`` that many members at a time (all at
    once if None), as the engine does with ``eval_batch_size``."""

    domain: str = "toy"
    seed: int = 5
    size: int = 40
    duplicates: int = 8
    variants: int = 3
    chunk: int | None = None
    use_tree_cache: bool = True
    es_threshold: float | None = 1.3
    marker: bool = True
    extrapolator: str = "linear"
    nan_row: int | None = None


def evaluator_cases(domain: str) -> st.SearchStrategy[EvaluatorCase]:
    """Cohorts of ``domain`` (or ``"toy"``) under drawn settings."""
    return st.builds(
        EvaluatorCase,
        domain=st.just(domain),
        seed=st.integers(0, 2**16),
        size=st.integers(8, 24),
        duplicates=st.integers(0, 4),
        variants=st.integers(0, 4),
        chunk=st.sampled_from((None, 1, 3)),
        use_tree_cache=st.booleans(),
        es_threshold=st.sampled_from((None, 0.5, 0.7, 1.0, 1.3)),
        marker=st.booleans(),
        extrapolator=st.sampled_from(sorted(EXTRAPOLATORS)),
        nan_row=st.sampled_from((None, 0, 20, 70)),
    )


def config_for(case: EvaluatorCase) -> GMRConfig:
    return dataclasses.replace(
        SMALL_CONFIG,
        use_tree_cache=case.use_tree_cache,
        es_threshold=case.es_threshold,
    )


@functools.lru_cache(maxsize=64)
def _problem(case: EvaluatorCase):
    """The task, unscored cohort and starting marker of ``case``; only
    its domain, cohort, ``nan_row`` and ``marker`` fields reach them."""
    if case.domain == "toy":
        task, knowledge = toy_task(), toy_knowledge()
        grammar = build_grammar(knowledge)
    else:
        __, knowledge, grammar = domain_setup(case.domain)
        task = domain_task(case.domain)
    if case.nan_row is not None:
        values = task.drivers.values.copy()
        values[case.nan_row, 0] = math.nan
        drivers = DriverTable(task.drivers.names, values)
        task = dataclasses.replace(task, drivers=drivers)
    config = config_for(case)
    cohort = make_cohort(
        grammar, knowledge, config, case.seed, case.size, case.duplicates, case.variants
    )
    marker = marker_for(task, config, cohort) if case.marker else math.inf
    return task, cohort, marker


@functools.lru_cache(maxsize=64)
def _sequential(case: EvaluatorCase):
    """The oracle side of ``case``: its problem, a sequential ``evaluate``
    of a copy of the cohort, and the reference Algorithm 1's outcomes,
    which the chunk width never reaches."""
    scoring = dict(es_threshold=None, use_tree_cache=True, extrapolator="linear")
    task, cohort, marker = _problem(dataclasses.replace(case, **scoring))
    extrapolate = EXTRAPOLATORS[case.extrapolator]
    evaluator = GMRFitnessEvaluator(task, config_for(case), extrapolate)
    evaluator.best_prev_full = marker
    population = copy.deepcopy(cohort)
    for member in population:
        evaluator.evaluate(member)
    reference = reference_algorithm_1(
        task, config_for(case), extrapolate, marker, copy.deepcopy(cohort)
    )
    return task, cohort, marker, evaluator, population, reference


def check_evaluator(case: EvaluatorCase):
    """Sequential ``evaluate`` vs ``evaluate_batch`` from the same
    starting marker, and both vs the reference Algorithm 1; returns the
    marker and the batch evaluator."""
    oracle = _sequential(dataclasses.replace(case, chunk=None))
    task, cohort, marker, ev_scalar, pop_scalar, reference = oracle
    pop_batched = copy.deepcopy(cohort)
    ev_batched = GMRFitnessEvaluator(
        task, config_for(case), EXTRAPOLATORS[case.extrapolator]
    )
    ev_batched.best_prev_full = marker
    chunk = case.chunk or len(pop_batched)
    for start in range(0, len(pop_batched), chunk):
        ev_batched.evaluate_batch(pop_batched[start : start + chunk])
    # The scalar loop integrates exactly the cases it counts.
    for stats in (ev_scalar.stats, ev_batched.stats):
        assert stats.steps_integrated == stats.steps_evaluated
    assert_equivalent(ev_scalar, ev_batched, pop_scalar, pop_batched)
    outcomes, best = reference
    assert same_value(ev_scalar.best_prev_full, best)
    for member, (fitness, fully) in zip(pop_scalar, outcomes, strict=True):
        assert member.fully_evaluated == fully
        assert same_value(member.fitness, fitness), (member.fitness, fitness)
    return marker, ev_batched


# -- network level -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def river_setup():
    """The one-year network task plus the river grammar."""
    task = load_dataset(n_years=2, seed=7, train_years=1).river_task("train")
    knowledge = river_knowledge()
    return task, knowledge, build_grammar(knowledge)


def assert_same_stream(task, model, params, oracle_days: int = 40) -> None:
    """Network stream == compiled ``steps()`` stream, and both agree
    with the interpreter over the first ``oracle_days`` days."""
    network = outcome(task.error_stream(model, params))
    stepped = outcome(task.stepped_errors(model, params, use_compiled=True))
    assert network == stepped
    oracle = outcome(
        task.stepped_errors(model, params, use_compiled=False), oracle_days
    )
    assert outcome(task.error_stream(model, params), oracle_days) == oracle


@dataclass(frozen=True)
class RiverCandidate:
    """A river model drawn through the initialiser and an operator
    chain, with its parameters scaled by ``scale``."""

    seed: int
    chain: tuple[str, ...] = ()
    scale: float = 1.0

    def build(self):
        task, knowledge, grammar = river_setup()
        individual = derive(knowledge, grammar, self.seed, self.chain)
        model, params = individual.phenotype(task.state_names, task.var_order)
        return model, scaled(params, self.scale)


river_candidates = st.builds(
    RiverCandidate,
    seed=st.integers(0, 2**20),
    chain=st.lists(st.sampled_from(OPERATORS), max_size=4).map(tuple),
    scale=st.sampled_from(SCALES),
)


# -- triage level ------------------------------------------------------

#: The divergence-heavy problem of ``benchmarks/test_triage_savings.py``,
#: whose candidates overflow into provably NaN right-hand sides.
DIVERGENT = "divergent"
TRIAGE_PROBLEMS = DOMAINS + (DIVERGENT,)


@functools.lru_cache(maxsize=None)
def triage_setup(name: str):
    """A problem's knowledge, grammar, task and per-candidate triage
    context.  A domain's context carries its prior hull as the engine
    builds it; the divergent problem matches no domain, so its hull is
    added here to exercise the memo on candidates that can be fatal.
    One context per problem, so its hull memo fills across draws."""
    if name == DIVERGENT:
        knowledge, task = divergence_heavy_problem()
        context = dataclasses.replace(
            context_for_task(task), param_hull=_prior_intervals(knowledge)
        )
    else:
        spec, knowledge, __ = domain_setup(name)
        task = domain_task(name)
        context = context_for_task(task, spec)
    return knowledge, build_grammar(knowledge), task, context


@st.composite
def triage_cases(draw, name: str):
    """A derived model of problem ``name``, its prior parameter vector
    and the problem's triage context."""
    knowledge, grammar, task, context = triage_setup(name)
    seed = draw(st.integers(0, 2**20))
    chain = draw(st.lists(st.sampled_from(OPERATORS), max_size=4))
    individual = derive(knowledge, grammar, seed, chain)
    model, params = individual.phenotype(task.state_names, task.var_order)
    return model, params, context


def report_fatal(model: ProcessModel, params, context) -> bool:
    """The reference verdict: fatal findings of the full lint report."""
    bound = dict(zip(model.param_order, params))
    report = triage_equations(model.equations, context, params=bound)
    return bool(fatal_findings(report))
