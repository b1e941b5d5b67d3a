"""Serving layer: amortise tuning cost across repeated SpMV traffic.

The paper's pipeline (features -> classifier -> binning -> launch) runs
per matrix; a server handling heavy repeated traffic must not re-pay the
inspector on every call.  This subpackage adds the three pieces that
make tuned SpMV *reusable*:

- :mod:`repro.serve.fingerprint` -- cheap structural hashing, so
  identical sparsity patterns are recognised across calls (values are
  free to change, as in iterative solvers);
- :mod:`repro.serve.plan_cache` -- a bounded LRU map from fingerprint to
  :class:`~repro.core.plan.ExecutionPlan`, with hit/miss/eviction
  counters and explicit invalidation;
- :mod:`repro.serve.batch` -- one plan against a multi-RHS block in a
  single dispatch sequence, on the simulated device and the real CPU;
- :mod:`repro.serve.server` -- the :class:`SpMVServer` façade tying it
  together behind ``submit`` / ``submit_batch`` with observable stats;
- :mod:`repro.serve.frontdoor` -- the multi-tenant traffic layer in
  front of the hot path: per-tenant token-bucket admission, priority
  classes with aging, deadline shedding and fair coalescing slots
  (``SpMVServer(admission=AdmissionPolicy(...))``).

Resilience (retries, per-plan circuit breakers, graceful degradation to
the serial reference path) plugs in through the server's ``resilience``
parameter -- see :mod:`repro.resilient`.
"""

from repro.serve.batch import (
    CPUBatchResult,
    cpu_batch_spmm,
    run_plan_spmm,
    run_plan_spmv,
)
from repro.serve.fingerprint import (
    FingerprintCache,
    FingerprintCacheStats,
    MatrixFingerprint,
    fingerprint_matrix,
)
from repro.serve.frontdoor import (
    DEFAULT_TENANT,
    PRIORITIES,
    AdmissionPolicy,
    AdmissionTicket,
    AgingQueue,
    FrontDoor,
    FrontDoorStats,
    TenantConfig,
    TenantStats,
    TokenBucket,
    fair_allocation,
)
from repro.serve.plan_cache import CacheStats, PlanCache
from repro.serve.server import (
    ServerStats,
    SpMVServer,
    SubmitResult,
    heuristic_planner,
)

__all__ = [
    "MatrixFingerprint",
    "fingerprint_matrix",
    "FingerprintCache",
    "FingerprintCacheStats",
    "CacheStats",
    "PlanCache",
    "run_plan_spmv",
    "run_plan_spmm",
    "cpu_batch_spmm",
    "CPUBatchResult",
    "SpMVServer",
    "ServerStats",
    "SubmitResult",
    "heuristic_planner",
    "DEFAULT_TENANT",
    "PRIORITIES",
    "AdmissionPolicy",
    "AdmissionTicket",
    "AgingQueue",
    "FrontDoor",
    "FrontDoorStats",
    "TenantConfig",
    "TenantStats",
    "TokenBucket",
    "fair_allocation",
]
