"""Process models: systems of differential equations over driver data.

A :class:`ProcessModel` couples named state variables to the expressions
for their time derivatives.  Models compile themselves (once per structure)
into a single step function via :mod:`repro.expr.compile`, and can also be
evaluated through the reference interpreter for the speedup ablations of
Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.expr.ast import Expr, free_params, free_states, free_vars, strip_ext
from repro.expr.compile import (
    KERNEL_CACHE,
    CompiledModel,
    CompiledStationKernel,
    compile_model,
    compile_station_kernel,
)
from repro.expr.evaluate import evaluate
from repro.expr.simplify import canonical_key

# Inert: the e2e benchmark's probes wrap these names of the deleted
# vector kernel builders (ROADMAP item 1).  Nothing in the package calls
# them.
compile_model_batched = None
compile_model_cohort = None


class ModelError(ValueError):
    """Raised for ill-formed process models."""


@dataclass
class ProcessModel:
    """A system of coupled ``dX/dt`` equations.

    Attributes:
        equations: Mapping from state name to the expression for its time
            derivative.  Mapping order fixes the state order used by
            compiled step functions.
        param_order: Parameter order used by compiled step functions.
        var_order: Driver-variable order used by compiled step functions.
    """

    equations: dict[str, Expr]
    param_order: tuple[str, ...]
    var_order: tuple[str, ...]
    _compiled: CompiledModel | None = field(default=None, repr=False, compare=False)
    _station: CompiledStationKernel | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.equations:
            raise ModelError("a process model needs at least one equation")
        self.param_order = tuple(self.param_order)
        self.var_order = tuple(self.var_order)
        states = set(self.state_names)
        params = set(self.param_order)
        variables = set(self.var_order)
        for state, expr in self.equations.items():
            unknown_states = free_states(expr) - states
            if unknown_states:
                raise ModelError(
                    f"equation for {state} references unknown states "
                    f"{sorted(unknown_states)}"
                )
            unknown_params = free_params(expr) - params
            if unknown_params:
                raise ModelError(
                    f"equation for {state} references unbound parameters "
                    f"{sorted(unknown_params)}"
                )
            unknown_vars = free_vars(expr) - variables
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
    ) -> "ProcessModel":
        """Build a model, inferring the parameter order from the equations.

        Parameters are ordered with the explicitly supplied ``extra_params``
        first (so that shared expert parameters keep stable positions),
        followed by any remaining parameters in sorted order.
        """
        equations = dict(equations)
        discovered: set[str] = set()
        for expr in equations.values():
            discovered |= free_params(expr)
        ordered = list(extra_params)
        ordered.extend(sorted(discovered - set(extra_params)))
        return cls(equations, tuple(ordered), tuple(var_order))

    def _kernel_key(self, kind: str) -> tuple:
        """Cache key for this model's kernels in the process-global LRU.

        Keyed on the canonical structure plus every positional order the
        generated source bakes in -- the same sharing rule the fitness
        evaluator has always used for structurally identical individuals.
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
        derivative per state.  Kernels are shared per structure through
        the process-global :data:`repro.expr.compile.KERNEL_CACHE`, so
        compilation cost is paid once per structure per process.
        """
        if self._compiled is None:
            self._compiled = KERNEL_CACHE.get_or_build(
                self._kernel_key("scalar"), self._build_scalar_kernel
            )
        return self._compiled

    def _build_scalar_kernel(self) -> CompiledModel:
        exprs = [strip_ext(self.equations[name]) for name in self.state_names]
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
        exprs = [strip_ext(self.equations[name]) for name in self.state_names]
        return compile_station_kernel(
            exprs, self.param_order, self.var_order, self.state_names
        )

    def adopt_kernel(self, kernel: CompiledModel | CompiledStationKernel) -> None:
        """Bind a kernel compiled for a structurally identical model (same
        structure key and parameter order): a station kernel or a scalar
        step function."""
        if isinstance(kernel, CompiledStationKernel):
            self._station = kernel
        else:
            self._compiled = kernel

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
        """A canonical key identifying the model structure.

        Two models with the same key are algebraically identical up to
        commutative reordering (parameter *names* included), which is what
        both the compiled-function cache and the fitness tree cache key on.
        The key is memoised per instance (equations are never mutated
        after construction); the memo travels through pickling, saving
        recanonicalisation in pool workers.
        """
        cached = self.__dict__.get("_structure_key")
        if cached is None:
            parts = [
                f"{name}={canonical_key(expr)}"
                for name, expr in self.equations.items()
            ]
            cached = ";".join(parts)
            self.__dict__["_structure_key"] = cached
        return cached

    def describe(self) -> str:
        """Human-readable rendering of the equations."""
        lines = [
            f"d{name}/dt = {strip_ext(expr)}"
            for name, expr in self.equations.items()
        ]
        return "\n".join(lines)
