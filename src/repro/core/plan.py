"""Execution plans: a concrete parallelisation strategy for one matrix.

A plan binds a binning scheme's result to one kernel per non-empty bin
-- the object the paper's Figure 3 "predict process" produces and the
SpMV step consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.binning.base import BinningResult, BinningScheme
from repro.binning.single import SingleBinning
from repro.device.executor import BoundPlan, Dispatch, SimulatedDevice
from repro.errors import TrainingError
from repro.formats.csr import CSRMatrix
from repro.kernels.registry import get_kernel

__all__ = ["ExecutionPlan", "fallback_plan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """(binning, per-bin kernel) assignment plus bookkeeping."""

    scheme: BinningScheme
    binning: BinningResult
    #: ``bin_id -> kernel name`` for every non-empty bin.
    bin_kernels: Dict[int, str]
    #: Simulated seconds the planner expects (kernels + launches +
    #: binning overhead); ``None`` when not evaluated.
    predicted_seconds: Optional[float] = None
    #: Where the plan came from: ``"predicted"`` (classifier) or
    #: ``"oracle"`` (exhaustive search).
    source: str = "predicted"
    #: This plan bound for the structure its planner saw, when the
    #: planner priced it by binding (the tuner does; ``predicted_seconds``
    #: is read from it), else ``None``.  Only
    #: :meth:`~repro.serve.plan_cache.PlanCache.get_or_build` reuses it,
    #: under the fingerprint it planned; :meth:`bind` always binds
    #: afresh, since a bound plan checks size, not structure.
    bound: Optional[BoundPlan] = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self) -> None:
        non_empty = {b for b, _ in self.binning.non_empty()}
        missing = non_empty - set(self.bin_kernels)
        if missing:
            raise TrainingError(
                f"plan assigns no kernel to non-empty bins {sorted(missing)}"
            )

    def dispatches(self) -> List[Dispatch]:
        """The (kernel, rows) launch sequence for the executor."""
        return [
            (get_kernel(self.bin_kernels[b]), rows)
            for b, rows in self.binning.non_empty()
        ]

    def bind(self, device: SimulatedDevice, matrix: CSRMatrix) -> BoundPlan:
        """This plan priced once for ``matrix``'s structure on ``device``.

        Everything that does not depend on the right-hand side -- the
        coverage check, gather locality, per-dispatch cost and the
        scheme's binning overhead -- is paid here; running the returned
        :class:`~repro.device.executor.BoundPlan` prices nothing.
        """
        return device.bind(
            matrix, self.dispatches(),
            extra_seconds=self.scheme.overhead_seconds(matrix, device.spec),
        )

    @property
    def n_launches(self) -> int:
        """Kernel launches this plan will make."""
        return self.binning.n_nonempty

    def kernel_summary(self) -> Dict[str, int]:
        """``kernel name -> rows assigned`` totals, for reports."""
        out: Dict[str, int] = {}
        for b, rows in self.binning.non_empty():
            name = self.bin_kernels[b]
            out[name] = out.get(name, 0) + len(rows)
        return out

    def describe(self) -> str:
        """Readable multi-line summary of the plan."""
        lines = [
            f"scheme: {self.scheme.name}  "
            f"({self.n_launches} launches, source={self.source})"
        ]
        if self.predicted_seconds is not None:
            lines[0] += f"  predicted={self.predicted_seconds * 1e3:.3f} ms"
        for b, rows in self.binning.non_empty():
            label = self.binning.labels[b]
            lines.append(
                f"  bin {b:3d} [{label}] -> {self.bin_kernels[b]:12s} "
                f"({len(rows)} rows)"
            )
        return "\n".join(lines)


def fallback_plan(matrix: CSRMatrix) -> ExecutionPlan:
    """The always-correct degraded plan: one bin, serial kernel."""
    binning = SingleBinning().bin_rows(matrix)
    return ExecutionPlan(
        scheme=SingleBinning(),
        binning=binning,
        bin_kernels={b: "serial" for b, _ in binning.non_empty()},
        source="fallback",
    )
