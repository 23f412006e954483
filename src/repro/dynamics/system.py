"""Process models: systems of differential equations over driver data.

A :class:`ProcessModel` couples named state variables to the expressions
for their time derivatives.  Models compile themselves (once per structure)
into a single step function via :mod:`repro.expr.compile`, and can also be
evaluated through the reference interpreter for the speedup ablations of
Figure 10.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Mapping, NamedTuple, Sequence

from repro.expr.ast import Expr, Param, State, Var, exact_key, strip_ext
from repro.expr.compile import (
    KERNEL_CACHE,
    CompiledModel,
    CompiledStationKernel,
    compile_model,
    compile_station_kernel,
)
from repro.expr.evaluate import evaluate

# Inert: the e2e benchmark's probes wrap these names of the deleted
# vector kernel builders (ROADMAP item 1).  Nothing in the package calls
# them.
compile_model_batched = None
compile_model_cohort = None


class ModelError(ValueError):
    """Raised for ill-formed process models."""


class FreeNames(NamedTuple):
    """The parameter, driver-variable and state names an expression reads."""

    params: set[str]
    variables: set[str]
    states: set[str]

    @classmethod
    def of(cls, expr: Expr) -> "FreeNames":
        """Collect ``expr``'s free names in one walk."""
        params: set[str] = set()
        variables: set[str] = set()
        states: set[str] = set()
        for node in expr.walk():
            if isinstance(node, Param):
                params.add(node.name)
            elif isinstance(node, Var):
                variables.add(node.name)
            elif isinstance(node, State):
                states.add(node.name)
        return cls(params, variables, states)


@dataclass
class ProcessModel:
    """A system of coupled ``dX/dt`` equations.

    Attributes:
        equations: Mapping from state name to the expression for its time
            derivative.  Mapping order fixes the state order used by
            compiled step functions.
        param_order: Parameter order used by compiled step functions.
        var_order: Driver-variable order used by compiled step functions.
        free: Construction only: each equation's :class:`FreeNames`, in
            equation order, when the caller already has them; otherwise
            they are collected from the equations.  Either way every
            equation is checked against the states, parameters and
            variables.
    """

    equations: dict[str, Expr]
    param_order: tuple[str, ...]
    var_order: tuple[str, ...]
    _compiled: CompiledModel | None = field(default=None, repr=False, compare=False)
    _station: CompiledStationKernel | None = field(
        default=None, repr=False, compare=False
    )
    free: InitVar[Sequence[FreeNames] | None] = None

    def __post_init__(self, free: Sequence[FreeNames] | None) -> None:
        if not self.equations:
            raise ModelError("a process model needs at least one equation")
        self.param_order = tuple(self.param_order)
        self.var_order = tuple(self.var_order)
        if free is None:
            free = [FreeNames.of(expr) for expr in self.equations.values()]
        elif len(free) != len(self.equations):
            raise ModelError(
                f"free names given for {len(free)} of "
                f"{len(self.equations)} equations"
            )
        states = set(self.state_names)
        params = set(self.param_order)
        variables = set(self.var_order)
        for state, names in zip(self.equations, free):
            unknown_states = names.states - states
            if unknown_states:
                raise ModelError(
                    f"equation for {state} references unknown states "
                    f"{sorted(unknown_states)}"
                )
            unknown_params = names.params - params
            if unknown_params:
                raise ModelError(
                    f"equation for {state} references unbound parameters "
                    f"{sorted(unknown_params)}"
                )
            unknown_vars = names.variables - variables
            if unknown_vars:
                raise ModelError(
                    f"equation for {state} references unknown variables "
                    f"{sorted(unknown_vars)}"
                )

    def __getstate__(self) -> dict:
        # Compiled kernels (scalar and station) are exec-generated and
        # unpicklable; they are rebuilt lazily after transfer to a
        # worker, where the worker's own process-global kernel cache
        # takes over sharing.
        state = dict(self.__dict__)
        state["_compiled"] = None
        state["_station"] = None
        return state

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(self.equations)

    @classmethod
    def from_equations(
        cls,
        equations: Mapping[str, Expr],
        var_order: Sequence[str],
        extra_params: Sequence[str] = (),
        free: Sequence[FreeNames] | None = None,
        keys: Sequence[str] | None = None,
    ) -> "ProcessModel":
        """Build a model, inferring the parameter order from the equations.

        Parameters are ordered with the explicitly supplied ``extra_params``
        first (so that shared expert parameters keep stable positions),
        followed by any remaining parameters in sorted order.

        A caller that already knows each equation's :class:`FreeNames`
        (``free``) and :func:`~repro.expr.ast.exact_key` (``keys``), in
        equation order, passes them so that neither is computed again:
        the model's checks run on ``free`` and :meth:`structure_key`
        joins ``keys``.
        """
        equations = dict(equations)
        if free is None:
            free = [FreeNames.of(expr) for expr in equations.values()]
        discovered: set[str] = set()
        for names in free:
            discovered |= names.params
        ordered = list(extra_params)
        ordered.extend(sorted(discovered - set(extra_params)))
        model = cls(equations, tuple(ordered), tuple(var_order), free=free)
        if keys is not None:
            model.__dict__["_structure_key"] = _join_keys(equations, keys)
        return model

    def _kernel_key(self, kind: str) -> tuple:
        """Cache key for this model's kernels in the process-global LRU.

        Keyed on the exact structure plus every positional order the
        generated source bakes in, so two models share a kernel only if
        they would generate the same source.
        """
        return (
            kind,
            self.structure_key(),
            self.param_order,
            self.var_order,
            self.state_names,
        )

    def compiled(self) -> CompiledModel:
        """Return (compiling on first use) the model's step function.

        The step function has signature ``step(P, V, S) -> tuple`` where
        ``P`` follows :attr:`param_order`, ``V`` follows :attr:`var_order`
        and ``S`` follows :attr:`state_names`; the result holds one
        derivative per state.  Kernels are shared through the
        process-global :data:`repro.expr.compile.KERNEL_CACHE` between
        models of one exact structure (:meth:`_kernel_key`), so
        compilation cost is paid once per structure per process and a
        model never runs the kernel of a different tree.
        """
        if self._compiled is None:
            self._compiled = KERNEL_CACHE.get_or_build(
                self._kernel_key("scalar"), self._build_scalar_kernel
            )
        return self._compiled

    def _build_scalar_kernel(self) -> CompiledModel:
        # The lowering reads through ``Ext`` markers, so the equations
        # compile as they are.
        exprs = [self.equations[name] for name in self.state_names]
        return compile_model(
            exprs, self.param_order, self.var_order, self.state_names
        )

    def station_kernel(self) -> CompiledStationKernel:
        """Return (compiling on first use) the river-network station
        kernel (:class:`repro.expr.compile.CompiledStationKernel`),
        shared per structure through the process-global kernel cache."""
        if self._station is None:
            self._station = KERNEL_CACHE.get_or_build(
                self._kernel_key("station"), self._build_station_kernel
            )
        return self._station

    def _build_station_kernel(self) -> CompiledStationKernel:
        exprs = [self.equations[name] for name in self.state_names]
        return compile_station_kernel(
            exprs, self.param_order, self.var_order, self.state_names
        )

    def interpret_step(
        self,
        params: Sequence[float],
        variables: Sequence[float],
        states: Sequence[float],
    ) -> tuple[float, ...]:
        """Evaluate one step through the reference interpreter.

        Used as the non-compiled baseline in the runtime-compilation
        ablation (Figure 10); behaviourally identical to ``compiled()``.
        """
        param_map = dict(zip(self.param_order, params))
        var_map = dict(zip(self.var_order, variables))
        state_map = dict(zip(self.state_names, states))
        return tuple(
            evaluate(self.equations[name], param_map, var_map, state_map)
            for name in self.state_names
        )

    def structure_key(self) -> str:
        """A key identifying the model structure exactly.

        It joins each equation's :func:`~repro.expr.ast.exact_key`: two
        models share it only if their equations are the same trees up to
        ``Ext`` markers (parameter *names* and operand order included), so
        they evaluate to the same bits.  The kernel cache, the fitness
        tree cache and the triage hull memo key on it.  The key is
        memoised per instance (equations are never mutated after
        construction); the memo travels through pickling, saving the
        walk in pool workers.
        """
        cached = self.__dict__.get("_structure_key")
        if cached is None:
            keys = [exact_key(expr) for expr in self.equations.values()]
            cached = _join_keys(self.equations, keys)
            self.__dict__["_structure_key"] = cached
        return cached

    def describe(self) -> str:
        """Human-readable rendering of the equations."""
        lines = [
            f"d{name}/dt = {strip_ext(expr)}"
            for name, expr in self.equations.items()
        ]
        return "\n".join(lines)


def _join_keys(equations: Mapping[str, Expr], keys: Sequence[str]) -> str:
    """:meth:`ProcessModel.structure_key` from per-equation keys."""
    return ";".join(f"{name}={key}" for name, key in zip(equations, keys))
