"""Plan execution for one or k right-hand sides.

Multi-RHS batching is the standard throughput lever for repeated SpMV
traffic: the matrix (and its plan) is read once per *batch* instead of
once per *vector*, so the bandwidth-bound matrix traffic and all
per-launch overheads amortise over ``k`` columns.  The operand's shape
alone picks the path -- a vector is SpMV, an ``(ncols, k)`` block is
SpMM -- and both run one :class:`~repro.core.plan.ExecutionPlan`:

- :func:`run_cached` runs a plan-cache entry's
  :class:`~repro.device.executor.BoundPlan` through
  :meth:`~repro.device.executor.SimulatedDevice.run`, optionally behind
  a :class:`~repro.resilient.ResilientExecutor` that degrades to the
  fallback plan.  The server and inline shards both serve through it;
- :func:`run_plan_spmv` / :func:`run_plan_spmm` bind a plan and run it
  once on the simulated device (plan charged once, bandwidth terms
  scaled by ``k``);
- :func:`cpu_batch_spmm` runs a block on the real
  :class:`~repro.device.cpu.CPUExecutor` (wall-clock measured).

Column ``j`` of every batched result is bit-identical to the
single-vector execution on ``X[:, j]`` -- the differential suite pins
this down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.core.plan import ExecutionPlan, fallback_plan
from repro.device.cpu import CPUExecutor, PartitionStrategy
from repro.device.executor import SimulatedDevice, SpMMResult, SpMVResult
from repro.formats.csr import CSRMatrix
from repro.resilient.faults import unwrap_device

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.resilient.executor import ResilientExecutor
    from repro.serve.fingerprint import MatrixFingerprint
    from repro.serve.plan_cache import PlanCache

__all__ = [
    "run_cached",
    "run_plan_spmv",
    "run_plan_spmm",
    "cpu_batch_spmm",
    "CPUBatchResult",
]


def run_plan_spmv(
    device: SimulatedDevice,
    matrix: CSRMatrix,
    v: np.ndarray,
    plan: ExecutionPlan,
) -> SpMVResult:
    """Bind a plan (binning overhead included) and run it for one RHS."""
    return device.run_spmv(matrix, v, plan.bind(device, matrix))


def run_plan_spmm(
    device: SimulatedDevice,
    matrix: CSRMatrix,
    dense: np.ndarray,
    plan: ExecutionPlan,
    *,
    max_rhs: Optional[int] = None,
) -> SpMMResult:
    """Bind a plan and run it against a multi-RHS block.

    The binning overhead is paid once for the whole block -- the plan is
    inspected once however wide the batch is.  Kernel launches are paid
    once per *pass*: without ``max_rhs`` (or when ``k <= max_rhs``) the
    whole block is one pass and launches amortise fully; with a cap the
    block is split into column blocks, and every block is physically a
    separate dispatch sequence that re-pays the plan's launches.  That
    per-pass charge is deliberate -- a capped-width device cannot launch
    one kernel over columns it never holds -- and is surfaced as
    ``SpMMResult.n_passes``.
    """
    return device.run_spmm(matrix, dense, plan.bind(device, matrix),
                           max_rhs=max_rhs)


def run_cached(
    device: SimulatedDevice,
    cache: PlanCache,
    fp: MatrixFingerprint,
    plan: ExecutionPlan,
    matrix: CSRMatrix,
    rhs: np.ndarray,
    *,
    max_rhs: Optional[int] = None,
    resilient: Optional[ResilientExecutor] = None,
    on_degrade: Optional[Callable[[str], None]] = None,
) -> Tuple[SpMVResult, ExecutionPlan, int, bool]:
    """Run ``fp``'s cached ``plan`` on ``device`` for a vector or a block.

    The bound plan comes from ``cache`` (bound on first use).  With a
    ``resilient`` executor the run retries, its ``y`` must be finite,
    and once retries run out ``on_degrade`` fires and the request is
    served by :func:`~repro.core.plan.fallback_plan`, bound on the
    unwrapped device -- the fallback plan is built only then.

    Returns ``(result, plan that ran, attempts, degraded)``.
    """
    def tuned() -> SpMVResult:
        return device.run(matrix, rhs, cache.bound(fp, plan, device, matrix),
                          max_rhs=max_rhs)

    if resilient is None:
        return tuned(), plan, 1, False
    fallbacks = []

    def fallback() -> SpMVResult:
        clean = unwrap_device(device)
        fallbacks.append(fallback_plan(matrix))
        return clean.run(matrix, rhs, fallbacks[-1].bind(clean, matrix),
                         max_rhs=max_rhs)

    res, outcome = resilient.execute(
        fp, tuned, fallback=fallback,
        validate=lambda r: bool(np.isfinite(r.y).all()),
        on_degrade=on_degrade,
    )
    ran = fallbacks[-1] if outcome.degraded else plan
    return res, ran, outcome.attempts, outcome.degraded


@dataclass(frozen=True)
class CPUBatchResult:
    """Outcome of one wall-clock batched execution on the host CPU."""

    U: np.ndarray
    #: Measured wall seconds for the whole block.
    seconds: float
    n_rhs: int


def cpu_batch_spmm(
    executor: CPUExecutor,
    matrix: CSRMatrix,
    dense: np.ndarray,
    *,
    strategy: PartitionStrategy = PartitionStrategy.NNZ,
) -> CPUBatchResult:
    """Run a multi-RHS block on the real CPU executor, timed.

    The thread pool partitions rows exactly as for single-vector SpMV;
    each chunk computes all ``k`` columns in one gather + ``reduceat``
    pass, so the matrix is streamed once per batch.
    """
    t0 = time.perf_counter()
    U = executor.spmm(matrix, dense, strategy=strategy)
    return CPUBatchResult(
        U=U, seconds=time.perf_counter() - t0, n_rhs=dense.shape[1]
    )
