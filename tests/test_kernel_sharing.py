"""Kernel sharing cannot change a result.

Every model compiles into one process-global table
(:data:`repro.expr.compile.KERNEL_CACHE`) keyed on the exact tree
(:meth:`ProcessModel.structure_key`).  A table keyed on an algebraic
equivalence -- commutative operands sorted, ``+``/``*`` chains flattened
-- hands a model the kernel of whichever equivalent tree compiled first
in the process, so its bits would depend on the process's compile
history: on test order, on the seeds a campaign ran before, and on
whether a run was resumed.  These properties compile equivalent trees in
both orders without clearing the table:

* a named case, ``min(B, x)`` against ``min(x, B)`` with ``x = p*p -
  p*p`` NaN at ``p = 1e200``, each compiled model against its
  interpreter;
* derivations of every domain against a *twin*, the same tree with
  commutative operands swapped and left-nested chains re-associated to
  the right: each model runs its own tree's kernel in either order;
* a seeded SIR run: its history is the same alone as after another seed
  in the same process.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dynamics.system as system
from repro.dynamics.system import ProcessModel
from repro.expr import ast
from repro.expr.ast import BinOp, Expr, Param, State
from repro.expr.compile import KernelCache, compile_model
from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine
from tests.oracle import DOMAINS, KernelCase, derivation_kernel_cases, nan_bits

#: ``p * p - p * p`` is ``inf - inf``, NaN, at this parameter value.
HUGE_P = 1e200
NAN_X = ast.sub(
    ast.mul(Param("p"), Param("p")), ast.mul(Param("p"), Param("p"))
)


def min_model(nan_first: bool) -> ProcessModel:
    operands = (NAN_X, State("B")) if nan_first else (State("B"), NAN_X)
    return ProcessModel.from_equations(
        {"B": ast.minimum(*operands)}, var_order=()
    )


@pytest.mark.parametrize(
    "nan_first", [False, True], ids=["state_first", "nan_first"]
)
def test_min_nan_pair_runs_its_own_kernel(nan_first):
    """Whichever of the pair compiles first, each compiled model equals
    its interpreter: ``min(B, NaN)`` is ``B`` and ``min(NaN, B)`` is
    NaN."""
    inputs = ((HUGE_P,), (), (1.0,))
    seen = []
    for flag in (nan_first, not nan_first):
        model = min_model(flag)
        compiled = model.compiled()(*inputs)
        assert nan_bits(compiled) == nan_bits(model.interpret_step(*inputs))
        seen.append(nan_bits(compiled))
    assert seen[0] != seen[1]


def twin(expr: Expr) -> Expr:
    """``expr`` with the operands of every ``+``, ``*``, ``min`` and
    ``max`` swapped and left-nested chains of one of them re-associated
    to the right: algebraically equal, but not bit for bit."""
    if isinstance(expr, BinOp) and expr.op in ("+", "*", "min", "max"):
        lhs, rhs = twin(expr.lhs), twin(expr.rhs)
        if isinstance(lhs, BinOp) and lhs.op == expr.op:
            return BinOp(expr.op, lhs.lhs, BinOp(expr.op, lhs.rhs, rhs))
        return BinOp(expr.op, rhs, lhs)
    kids = expr.children()
    if not kids:
        return expr
    return expr.with_children(tuple(twin(kid) for kid in kids))


def check_compile_order(case: KernelCase) -> None:
    """Member 0 of ``case`` and its twin, compiled into a fresh table in
    each order: every model's bits are those of its own tree's kernel."""
    exprs, order = case.members[0]
    trees = (exprs, tuple(twin(expr) for expr in exprs))
    orders = (order, case.var_order, case.state_order)
    P = np.array(case.params, dtype=float).T[: len(order), : case.lanes]
    S = np.array(case.states, dtype=float).T[:, : case.lanes]
    lanes = [
        (tuple(P[:, k].tolist()), tuple(S[:, k].tolist()))
        for k in range(case.lanes)
    ]
    rows = [tuple(row) for row in case.rows]

    def run(step) -> list:
        return [nan_bits(step(Pk, row, Sk)) for Pk, Sk in lanes for row in rows]

    own = [run(compile_model(list(tree), *orders)) for tree in trees]
    for sequence in ((0, 1), (1, 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(system, "KERNEL_CACHE", KernelCache())
            for index in sequence:
                model = ProcessModel(
                    dict(zip(case.state_order, trees[index])),
                    order,
                    case.var_order,
                )
                assert run(model.compiled()) == own[index], (index, sequence)


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compile_order_cannot_change_a_result(domain, data):
    check_compile_order(data.draw(derivation_kernel_cases(domain)))


#: The SIR campaign benchmark's knobs (population, generations, batch,
#: proposals, triage, sizes and local search).
SIR_CONFIG = GMRConfig(
    population_size=24,
    max_generations=4,
    eval_batch_size=24,
    gaussian_proposals=4,
    static_triage=True,
    max_size=20,
    init_max_size=8,
    local_search_steps=3,
    n_workers=1,
)


def sir_history(seeds: tuple[int, ...]) -> list[tuple[float, float]]:
    """The last seed's history, after running ``seeds`` in order in one
    engine, in a process whose kernel table starts empty."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system, "KERNEL_CACHE", KernelCache())
        engine = GMREngine.for_domain("sir", SIR_CONFIG)
        for seed in seeds:
            result = engine.run(seed=seed)
    return [(r.best_fitness, r.mean_fitness) for r in result.history]


def test_seed_history_does_not_depend_on_earlier_seeds():
    """Seed 2's SIR history alone equals its history after seed 1."""
    assert sir_history((1, 2)) == sir_history((2,))
