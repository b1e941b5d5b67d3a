"""``SpMVServer``: a façade that makes tuned SpMV reusable and batched.

The paper's framework pays feature extraction, classifier consultation
and binning for *every* matrix -- fine for one-shot benchmarking, wrong
for serving repeated traffic.  The server splits that cost along the
inspector--executor line:

1. **fingerprint** the incoming matrix's sparsity structure (cheap hash),
   once per request;
2. **plan-or-hit**: consult the LRU plan cache; only a miss runs the
   planner (the tuner's predict phase, or a heuristic fallback);
3. **execute** the plan -- single vector or a whole multi-RHS block in
   one dispatch sequence;
4. account everything in an observable stats snapshot.

``submit`` (a vector) and ``submit_batch`` (an ``(ncols, k)`` block)
validate their operand and then share one request body: the operand's
shape is the only thing that tells SpMV from SpMM below them, down to
the device and the process workers.

Iterative solvers, time-stepping codes and PageRank-style workloads all
re-submit one pattern with changing values; after the first request they
run plan-free.

Concurrency: ``submit``/``submit_batch`` are safe to call from a thread
pool -- the plan cache has its own lock and the server's counters and
stage accounting sit behind an internal ``RLock``.

Observability: each serving stage runs inside a tracing span
(``serve.fingerprint`` / ``serve.plan`` / ``serve.execute``), and the
server feeds ``serve_*`` counters and per-stage latency histograms to
its metrics registry (the process-global one by default).

Resilience: pass ``resilience=ResiliencePolicy(...)`` and every tuned
execution runs through :class:`~repro.resilient.ResilientExecutor` --
bounded retries with backoff, a per-plan circuit breaker, and graceful
degradation that invalidates the failing cached plan and serves the
request from the always-correct serial reference path (bypassing any
chaos wrapper on the device).  Without a policy the hot path is the
plain one: no extra objects, no extra branches beyond one ``is None``.

Scaling past one device: ``sharding=ShardingPolicy(...)`` routes
execution through a :class:`~repro.shard.executor.ShardedExecutor`
(K row-shards planned independently, executed concurrently on a device
pool), and ``scheduler=CoalescePolicy(...)`` puts a
:class:`~repro.shard.scheduler.RequestScheduler` in front of ``submit``
so concurrent same-matrix requests coalesce into one multi-RHS
dispatch.  Both default to ``None`` and the single-device hot path is
byte-for-byte the same when unset.  The server is a context manager;
``close()`` drains the scheduler and shuts worker pools down
deterministically, after which ``submit`` raises
:class:`~repro.errors.DeviceError` (mirroring ``CPUExecutor``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

import numpy as np

from repro.binning.single import SingleBinning
from repro.core.plan import ExecutionPlan
from repro.device.executor import SimulatedDevice
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.spans import activate_trace, span
from repro.trace.context import TraceContext
from repro.trace.recorder import TraceRecorder
from repro.trace.slo import SLOMonitor, SLOTarget, TracingPolicy
from repro.resilient.executor import (
    ResiliencePolicy,
    ResilienceStats,
    ResilientExecutor,
)
from repro.resilient.faults import unwrap_device
from repro.serve.batch import run_cached
from repro.serve.fingerprint import (
    FingerprintCache,
    FingerprintCacheStats,
    MatrixFingerprint,
)
from repro.serve.frontdoor import (
    DEFAULT_TENANT,
    PRIORITIES,
    AdmissionPolicy,
    FrontDoor,
    FrontDoorStats,
)
from repro.serve.plan_cache import CacheStats, PlanCache
from repro.utils.validation import check_spmm_operand, check_spmv_operand

if TYPE_CHECKING:  # pragma: no cover - import cycle: shard imports serve
    from repro.blackbox.core import BlackboxPolicy, BlackboxStats
    from repro.learn.selector import LearningPolicy, LearnStats
    from repro.shard.executor import (
        ShardExecutorStats,
        ShardingPolicy,
        ShardSummary,
    )
    from repro.shard.scheduler import CoalescePolicy, SchedulerStats

__all__ = ["SpMVServer", "ServerStats", "SubmitResult", "heuristic_planner"]

#: Signature of anything that can produce a plan for a new matrix.
Planner = Callable[[CSRMatrix], ExecutionPlan]


def heuristic_planner(matrix: CSRMatrix) -> ExecutionPlan:
    """Zero-training fallback planner: single bin, one width-matched kernel.

    Picks the subvector width nearest the mean row length (the paper's
    own rule of thumb for uniform matrices), degrading to ``serial`` for
    very short rows and ``vector`` for very long ones.  This keeps the
    server usable without a fitted :class:`~repro.core.framework.AutoTuner`;
    pass one for input-aware plans.
    """
    binning = SingleBinning().bin_rows(matrix)
    mean = matrix.nnz / matrix.nrows if matrix.nrows else 0.0
    if mean <= 2.0:
        kernel = "serial"
    elif mean >= 192.0:
        kernel = "vector"
    else:
        width = int(min(128, max(2, 2 ** round(np.log2(max(mean, 2.0))))))
        kernel = f"subvector{width}"
    bin_kernels = {b: kernel for b, _ in binning.non_empty()}
    return ExecutionPlan(
        scheme=SingleBinning(),
        binning=binning,
        bin_kernels=bin_kernels,
        source="heuristic",
    )


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one ``submit``/``submit_batch`` call."""

    #: Result: shape ``(nrows,)`` for submit, ``(nrows, k)`` for batch.
    y: np.ndarray
    #: Simulated seconds the execution was accounted.
    seconds: float
    #: Kernel launches in the dispatch sequence(s) this call issued.
    n_dispatches: int
    #: True when the plan came from the cache (planning skipped); for a
    #: sharded execution, True when *every* shard's plan was cached.
    cache_hit: bool
    fingerprint: MatrixFingerprint
    #: The executed plan; ``None`` for sharded executions (each shard
    #: has its own plan -- see ``shards`` for the breakdown).
    plan: Optional[ExecutionPlan]
    #: Tuned-plan attempts this request took (0 when an open breaker
    #: short-circuited straight to the fallback; always 1 without a
    #: resilience policy; summed across shards when sharded).
    attempts: int = 1
    #: True when the fallback (serial reference) path produced ``y``
    #: after the tuned plan kept failing (any shard, when sharded).
    degraded: bool = False
    #: How many requests shared this request's dispatch (1 = no
    #: coalescing; >1 means the scheduler batched it with siblings).
    coalesced_width: int = 1
    #: Per-shard breakdown when the server runs sharded, else ``None``.
    shards: Optional[ShardSummary] = None
    #: This request's trace id when the server traces, else ``None``.
    #: Pass it to ``TraceRecorder.timeline`` / filter the Chrome export.
    trace_id: Optional[str] = None
    #: The coalesced dispatch's own trace id when this request was
    #: served by a traced, coalesced group (its root span links back to
    #: every member request, this one included); else ``None``.
    dispatch_trace_id: Optional[str] = None
    #: Tenant the request was attributed to (multi-tenant front door).
    tenant: str = DEFAULT_TENANT
    #: Priority class the request rode in (``latency`` / ``batch``).
    priority: str = "latency"
    #: Arm the online selector served this request under (``"tree"`` or
    #: ``"u<U>:<kernel>"``); ``None`` when the server has no
    #: ``learning`` policy.
    arm: Optional[str] = None
    #: True when the arm was an exploration rather than the exploit
    #: choice (always False without a ``learning`` policy).
    explored: bool = False


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time snapshot of a server's accounting."""

    #: Total ``submit`` + ``submit_batch`` calls.
    requests: int
    #: ``submit_batch`` calls only.
    batch_requests: int
    #: Right-hand sides served (a k-wide batch counts k).
    rhs_served: int
    #: Dispatch sequences issued (one per request, however wide).
    dispatch_sequences: int
    #: Individual kernel launches across all sequences.
    kernel_launches: int
    #: Accumulated simulated execution seconds.
    simulated_seconds: float
    #: Wall seconds per serving stage (``fingerprint``/``plan``/``execute``).
    stage_seconds: Dict[str, float]
    cache: CacheStats
    #: Resilience accounting; ``None`` when no policy is configured.
    resilience: Optional[ResilienceStats] = None
    #: Coalescing accounting; ``None`` without a ``scheduler=`` policy.
    scheduler: Optional[SchedulerStats] = None
    #: Sharding accounting; ``None`` without a ``sharding=`` policy.
    shards: Optional[ShardExecutorStats] = None
    #: Fingerprint-cache accounting (identity and structure tiers).
    fingerprints: Optional[FingerprintCacheStats] = None
    #: Admission accounting; ``None`` without an ``admission=`` policy.
    frontdoor: Optional[FrontDoorStats] = None
    #: Online-selector accounting; ``None`` without a ``learning=``
    #: policy.
    learning: Optional[LearnStats] = None
    #: Flight-recorder / debug-bundle accounting; ``None`` without a
    #: ``blackbox=`` policy.
    blackbox: Optional[BlackboxStats] = None

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit rate over all requests."""
        return self.cache.hit_rate

    def describe(self) -> str:
        """Readable multi-line summary (CLI / logs)."""
        lines = [
            f"requests           : {self.requests} "
            f"({self.batch_requests} batched, {self.rhs_served} RHS total)",
            f"plan cache         : {self.cache.hits} hits / "
            f"{self.cache.misses} misses / {self.cache.evictions} evictions "
            f"(hit rate {self.hit_rate:.1%}, size "
            f"{self.cache.size}/{self.cache.capacity})",
            f"dispatch sequences : {self.dispatch_sequences} "
            f"({self.kernel_launches} kernel launches)",
            f"simulated exec time: {self.simulated_seconds * 1e3:.3f} ms",
        ]
        if self.fingerprints is not None:
            fps = self.fingerprints
            lines.append(
                f"fingerprint cache  : {fps.identity_hits} identity hits / "
                f"{fps.structure_hits} structure hits / {fps.hashes} hashes "
                f"(hit rate {fps.hit_rate:.1%}, {fps.structures} structures "
                f"stored)"
            )
        for stage in ("fingerprint", "plan", "execute"):
            lines.append(
                f"  {stage + ' stage':<17s}: "
                f"{self.stage_seconds.get(stage, 0.0) * 1e3:.3f} ms wall"
            )
        if self.resilience is not None:
            lines.append("resilience:")
            lines.extend(
                "  " + line for line in self.resilience.describe().splitlines()
            )
        if self.scheduler is not None:
            lines.append("coalescing:")
            lines.extend(
                "  " + line for line in self.scheduler.describe().splitlines()
            )
        if self.shards is not None:
            lines.append("sharding:")
            lines.extend(
                "  " + line for line in self.shards.describe().splitlines()
            )
        if self.frontdoor is not None:
            lines.append("front door:")
            lines.extend(
                "  " + line for line in self.frontdoor.describe().splitlines()
            )
        if self.learning is not None:
            lines.append("online learning:")
            lines.extend(
                "  " + line for line in self.learning.describe().splitlines()
            )
        if self.blackbox is not None:
            lines.append("blackbox:")
            lines.extend(
                "  " + line for line in self.blackbox.describe().splitlines()
            )
        return "\n".join(lines)


class SpMVServer:
    """Serving façade over fingerprinting, plan caching and batching.

    Parameters
    ----------
    tuner:
        A *fitted* :class:`~repro.core.framework.AutoTuner`; its
        ``plan`` method becomes the planner and its device executes.
        Optional -- without one, :func:`heuristic_planner` plans.
    planner:
        Explicit planner callable, overriding ``tuner``'s.
    device:
        Execution device; defaults to the tuner's (or a fresh
        :class:`SimulatedDevice`).
    cache_capacity:
        Bound on distinct sparsity patterns kept planned, and on the
        structures whose index arrays the fingerprint cache keeps to
        recognise fresh copies without hashing.
    max_rhs:
        Optional cap on columns per batched pass, an integer >= 1 (wider
        submissions are column-blocked internally; still one request in
        the stats, but each column block is a separate dispatch sequence
        physically -- see :meth:`submit_batch`).
    registry:
        Metrics registry the server (and its cache/device, unless they
        were passed in pre-built) reports to.  Defaults to the
        process-global registry; pass
        :data:`~repro.observe.NULL_REGISTRY` to disable at near-zero
        overhead.
    resilience:
        Optional :class:`~repro.resilient.ResiliencePolicy`.  When set,
        tuned executions are retried with backoff, guarded by a
        per-plan circuit breaker, output-validated against NaN/Inf
        poisoning, and degraded to the serial reference path (with the
        cached plan invalidated) when they keep failing.  ``None``
        (default) keeps the hot path exactly as before.  With
        ``sharding`` the policy applies *per shard* (inside the
        sharded executor) instead of per request.
    sharding:
        Optional :class:`~repro.shard.executor.ShardingPolicy`.  When
        set, requests execute through a
        :class:`~repro.shard.executor.ShardedExecutor`: K row-shards
        planned independently and run concurrently on a pool of devices
        cloned from ``device``'s spec.  ``None`` (default) keeps the
        single-device path untouched.
    scheduler:
        Optional :class:`~repro.shard.scheduler.CoalescePolicy`.  When
        set, ``submit`` routes through a
        :class:`~repro.shard.scheduler.RequestScheduler` that coalesces
        concurrent same-matrix requests into one multi-RHS dispatch
        (``submit_batch`` callers are already batched and bypass it).
        Stats note: a coalesced group accounts as *one* batch request
        in :class:`ServerStats` -- per-request counts live in
        ``stats().scheduler``.
    tracing:
        Optional :class:`~repro.trace.TracingPolicy`.  When set, every
        ``submit``/``submit_batch`` runs under a fresh trace: a
        ``serve.request`` root span plus every stage, shard-worker,
        retry-attempt and device-dispatch span lands in
        :attr:`trace_recorder` (exportable as Chrome trace-event JSON
        or a plain-text timeline), and request latency feeds
        :attr:`slo` (windowed p50/p95/p99 quantile gauges, breach
        counters, ``health_snapshot()``).  ``None`` (default) keeps the
        hot path untraced: no context, no recorder, no extra work.
    admission:
        Optional :class:`~repro.serve.frontdoor.AdmissionPolicy`.  When
        set, every ``submit``/``submit_batch`` passes through a
        :class:`~repro.serve.frontdoor.FrontDoor` first: per-tenant
        token-bucket rate limiting, per-tenant pending bounds and
        deadline-aware shedding (rejections raise
        :class:`~repro.errors.TenantRateLimitError` /
        :class:`~repro.errors.QueueFullError` /
        :class:`~repro.errors.DeadlineExceededError` and count into
        ``frontdoor_shed_total{tenant,reason}``).  With a coalescing
        ``scheduler`` and ``fair_coalescing`` on, tenants propagate
        into the scheduler so batch slots are fair-allocated; with
        ``tracing``, each priority class gets its own SLO monitor.
        ``None`` (default) keeps the hot path anonymous and
        admission-free -- same pattern as ``resilience=``/``tracing=``.
    learning:
        Optional :class:`~repro.learn.LearningPolicy`.  When set, an
        :class:`~repro.learn.OnlineSelector` sits between requests and
        the planner: each request is served under a chosen *arm*
        (``tree`` = the configured planner, or a candidate
        ``(U, kernel)`` override), observed latency feeds back into
        the arm table, and a bounded exploration budget tries
        alternatives -- never on requests carrying deadlines, never in
        coalesced group dispatches.  ``SubmitResult`` gains
        ``arm``/``explored``; arm changes re-plan through the existing
        ``invalidate()`` path (shard layer included); decisions land
        on ``learn.decide`` trace spans and ``learn_*`` metrics.
        ``None`` (default) keeps the hot path byte-identical to an
        unlearned server.
    blackbox:
        Optional :class:`~repro.blackbox.BlackboxPolicy`.  When set,
        every served request lands in a bounded flight-recorder ring
        (tenant, arm, plan, cache hit, shard layout, resilience
        outcome, wall + simulated latency, trace id), and incident
        signals -- SLO breaches, breaker opens, worker-pool crashes,
        shed-rate spikes, degraded requests -- fire a rate-limited
        debug-bundle write under ``bundle_dir`` that
        ``python -m repro doctor`` renders into an incident report.
        ``None`` (default) allocates no recorder state and adds
        nothing to the submit path beyond one ``is None`` check --
        same pattern as ``resilience=``/``tracing=``.
    """

    def __init__(
        self,
        tuner=None,
        *,
        planner: Optional[Planner] = None,
        device: Optional[SimulatedDevice] = None,
        cache_capacity: int = 128,
        max_rhs: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
        sharding: Optional[ShardingPolicy] = None,
        scheduler: Optional[CoalescePolicy] = None,
        tracing: Optional[TracingPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        learning: Optional[LearningPolicy] = None,
        blackbox: Optional[BlackboxPolicy] = None,
    ):
        if max_rhs is not None and not (
                isinstance(max_rhs, (int, np.integer))
                and not isinstance(max_rhs, bool) and max_rhs >= 1):
            raise ValueError(
                f"max_rhs must be None or an integer >= 1, got {max_rhs!r}")
        if planner is not None:
            self._planner: Planner = planner
        elif tuner is not None:
            self._planner = tuner.plan
        else:
            self._planner = heuristic_planner
        self.registry = get_registry() if registry is None else registry
        if device is not None:
            self.device = device
        elif tuner is not None:
            self.device = tuner.device
        else:
            self.device = SimulatedDevice(registry=self.registry)
        self.cache = PlanCache(capacity=cache_capacity,
                               registry=self.registry)
        # Resubmitting the same matrix *object* (solver traffic), or a
        # fresh copy of a structure seen recently, skips hashing.
        self._fingerprints = FingerprintCache(capacity=cache_capacity)
        #: The :class:`~repro.blackbox.Blackbox` behind a ``blackbox=``
        #: server; ``None`` otherwise.  Built before the front door and
        #: SLO monitors so their incident hooks can point at it; bound
        #: (event sink + layout labels) at the end of construction.
        self.blackbox = None
        if blackbox is not None:
            # Imported lazily -- same rationale as the shard layer: no
            # import tax on servers that never fly a recorder.
            from repro.blackbox.core import Blackbox

            self.blackbox = Blackbox(blackbox, registry=self.registry)
        self.learning = learning
        self._selector = None
        if learning is not None:
            # Imported lazily -- same rationale as the shard layer: no
            # import tax on servers that never learn.
            from repro.learn.selector import OnlineSelector

            self._selector = OnlineSelector(
                learning,
                self._planner,
                device=unwrap_device(self.device),
                registry=self.registry,
            )
            # The selector becomes THE planner: the plan cache and the
            # sharded executor's per-shard planning (built below from
            # self._planner) all route through the active arm.
            self._planner = self._selector.plan
        self.resilience = resilience
        # With sharding, resilience applies per shard inside the sharded
        # executor; wrapping here too would retry every request twice.
        self._resilient = (
            ResilientExecutor(resilience, registry=self.registry)
            if resilience is not None and sharding is None else None
        )
        self.max_rhs = max_rhs
        self.tracing = tracing
        self.admission = admission
        self.frontdoor: Optional[FrontDoor] = (
            FrontDoor(
                admission,
                registry=self.registry,
                on_shed=(self.blackbox.note_shed
                         if self.blackbox is not None else None),
            )
            if admission is not None else None
        )
        self.trace_recorder: Optional[TraceRecorder] = None
        self.slo: Optional[SLOMonitor] = None
        #: Per-priority-class SLO monitors (any tracing server).
        self.slo_by_class: Dict[str, SLOMonitor] = {}
        #: Request-latency histogram carrying trace-id exemplars; built
        #: only for tracing servers (exemplars need trace ids, and an
        #: untraced server's metric families must stay unchanged).
        self._m_request_seconds = None
        if tracing is not None:
            self.trace_recorder = TraceRecorder(
                capacity=tracing.recorder_capacity,
                registry=self.registry,
            )
            target = tracing.slo if tracing.slo is not None else SLOTarget()
            self.slo = SLOMonitor(
                target,
                window=tracing.latency_window,
                registry=self.registry,
                refresh_every=tracing.refresh_every,
                # The blackbox turns per-request breaches into debug
                # bundles; only the overall monitor triggers (the
                # per-class monitors see the same latencies).
                on_breach=(self.blackbox.on_slo_breach
                           if self.blackbox is not None else None),
            )
            self._m_request_seconds = self.registry.histogram(
                "serve_request_seconds",
                help_text="End-to-end request wall seconds "
                          "(buckets carry trace-id exemplars).",
            )
            # One monitor per priority class: an overloaded batch
            # class must not hide a healthy latency class (or vice
            # versa) inside one mixed window.  Built for *every*
            # tracing server -- callers pass ``priority=`` whether or
            # not an admission policy resolves it -- so the class view
            # does not silently vanish when the front door is off.
            self.slo_by_class = {
                priority: SLOMonitor(
                    target,
                    window=tracing.latency_window,
                    registry=self.registry,
                    refresh_every=tracing.refresh_every,
                    labels={"class": priority},
                )
                for priority in PRIORITIES
            }
        self._closed = False
        # Imported lazily: repro.shard.executor/scheduler import the
        # serve layer, so importing them at module scope would close an
        # import cycle (and tax every import that never shards).
        self._sharded = None
        if sharding is not None:
            from repro.shard.executor import ShardedExecutor

            base_spec = unwrap_device(self.device).spec
            self._sharded = ShardedExecutor(
                sharding,
                planner=self._planner,
                device_factory=lambda: SimulatedDevice(
                    spec=base_spec, registry=self.registry
                ),
                resilience=resilience,
                registry=self.registry,
            )
        self._scheduler = None
        if scheduler is not None:
            from repro.shard.scheduler import RequestScheduler

            # The admission policy's fairness promise extends into the
            # coalescing layer: tenants ride through to the scheduler
            # and batch slots are fair-allocated across them.
            if (admission is not None and admission.fair_coalescing
                    and not scheduler.fair):
                scheduler = replace(scheduler, fair=True)
            # Bound to the *direct* batch path: close() drains pending
            # groups through it after the public API has shut.  With
            # learning on, group dispatches are exploit-only -- a
            # coalesced group mixes tenants (and possibly deadlines),
            # so no member's latency is spent on exploration.
            if self._selector is None:
                batch_fn = self._direct_submit_batch
            else:
                def batch_fn(m, X):
                    return self._direct_submit_batch(m, X, no_explore=True)
            self._scheduler = RequestScheduler(
                batch_fn, scheduler,
                registry=self.registry,
                fingerprint=self._fingerprints.fingerprint,
            )
        self._lock = threading.RLock()
        self._requests = 0
        self._batch_requests = 0
        self._rhs_served = 0
        self._dispatch_sequences = 0
        self._kernel_launches = 0
        self._simulated_seconds = 0.0
        self._stage_seconds: Dict[str, float] = {
            "fingerprint": 0.0, "plan": 0.0, "execute": 0.0,
        }
        # Registry instruments, resolved once (hot path does no lookups).
        self._m_requests = {
            kind: self.registry.counter(
                "serve_requests_total", {"kind": kind},
                help_text="submit/submit_batch calls served.",
            )
            for kind in ("single", "batch")
        }
        self._m_rhs = self.registry.counter(
            "serve_rhs_total",
            help_text="Right-hand sides served (a k-wide batch counts k).",
        )
        self._m_launches = self.registry.counter(
            "serve_kernel_launches_total",
            help_text="Kernel launches across all dispatch sequences.",
        )
        self._m_sim_seconds = self.registry.counter(
            "serve_simulated_seconds_total",
            help_text="Accumulated simulated execution seconds.",
        )
        self._m_stage = {
            stage: self.registry.histogram(
                "serve_stage_seconds", {"stage": stage},
                help_text="Wall seconds per serving stage per request.",
            )
            for stage in ("fingerprint", "plan", "execute")
        }
        # Bound last: binding reads the final layout (shard backend,
        # selector, recorder) and registers the incident event sink.
        if self.blackbox is not None:
            self.blackbox.bind(self)

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "SpMVServer":
        if self._closed:
            raise DeviceError("SpMVServer is closed; create a new instance")
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the server down deterministically (idempotent).

        Order matters: the coalescing scheduler drains first (pending
        groups flush through the direct batch path and their waiters
        get results), then the sharded executor's worker pool joins.
        Last, the fingerprint cache empties, so its stored index-array
        copies are freed now rather than when the cyclic garbage
        collector reaches the server.  A closed server raises
        :class:`~repro.errors.DeviceError` on further
        ``submit``/``submit_batch`` calls -- use-after-close is a caller
        bug, mirroring :class:`~repro.device.cpu.CPUExecutor`.
        """
        if self._closed:
            return
        self._closed = True
        if self._scheduler is not None:
            self._scheduler.close()
        if self._sharded is not None:
            self._sharded.close()
        if self.blackbox is not None:
            self.blackbox.close()
        self._fingerprints.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or ``__exit__``) has run."""
        return self._closed

    @property
    def selector(self):
        """The :class:`~repro.learn.OnlineSelector` behind a
        ``learning=`` server (its decision log, arm tables and
        :func:`~repro.learn.retrain` hook); ``None`` without one."""
        return self._selector

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceError(
                "SpMVServer used after close(); create a new instance"
            )

    # -- planning --------------------------------------------------------
    def _plan_for(
        self, matrix: CSRMatrix, fp: MatrixFingerprint
    ) -> tuple[ExecutionPlan, bool]:
        """``fp``'s plan from the cache, planning ``matrix`` on a miss."""
        with span("serve.plan", self.registry) as sp:
            plan, hit = self.cache.get_or_build(
                fp, lambda: self._planner(matrix)
            )
        if not hit and plan.source == "heuristic":
            self.registry.emit(
                "planner_fallback", fingerprint=str(fp), source=plan.source
            )
        self._observe_stage("plan", sp.seconds)
        return plan, hit

    def _observe_stage(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._stage_seconds[stage] += seconds
        self._m_stage[stage].observe(seconds)

    # -- graceful degradation --------------------------------------------
    def _degrade_plan(self, fp: MatrixFingerprint, cause: str) -> None:
        """Drop the failing cached plan and record the downgrade."""
        invalidated = self.cache.invalidate(fp)
        self.registry.emit(
            "plan_invalidated",
            fingerprint=str(fp),
            cause=cause,
            was_cached=invalidated,
        )

    # -- coalesced routing -----------------------------------------------
    def _coalesced_submit(
        self, matrix: CSRMatrix, x: np.ndarray, tenant: str = DEFAULT_TENANT
    ) -> SubmitResult:
        """Serve one SpMV through the coalescing scheduler.

        The scheduler groups concurrent same-matrix submissions and
        dispatches each group once via the direct batch path; this
        request's column of the group result is bit-identical to what a
        lone ``submit`` would have produced (batched kernels compute
        every column independently).
        """
        scheduled = self._scheduler.submit(matrix, x, tenant=tenant)
        group: SubmitResult = scheduled.batch
        return replace(
            group,
            y=group.y[:, scheduled.column],
            coalesced_width=scheduled.width,
            dispatch_trace_id=scheduled.dispatch_trace_id,
        )

    # -- online learning -------------------------------------------------
    def _learned_request(
        self,
        matrix: CSRMatrix,
        fp: MatrixFingerprint,
        no_explore: bool,
        body: Callable[[], SubmitResult],
    ) -> SubmitResult:
        """Decide an arm, execute under it, feed the outcome back.

        The decision rides a thread-local inside the selector, so the
        plan cache *and* the sharded executor's per-shard planning
        (both synchronous on this thread) build plans for the chosen
        arm.  When the arm differs from the one the digest's cached
        plans were built under, the change pushes through the same
        invalidation layers :meth:`invalidate` uses -- plan cache,
        shard sets, worker-side bound plans.  A failing or degraded
        execution is reported back as a fault so the arm is penalized
        (and eventually quarantined), not retried forever.
        """
        with span("learn.decide", self.registry) as sp:
            decision = self._selector.decide(
                matrix, fp.digest, allow_explore=not no_explore
            )
            if decision.replan:
                self.cache.invalidate(fp)
                if self._sharded is not None:
                    self._sharded.invalidate(fp.digest)
            sp.attrs = {
                "key": decision.key,
                "arm": decision.arm.name,
                "explored": decision.explored,
                "replan": decision.replan,
            }
        t0 = perf_counter()
        try:
            with self._selector.activate(decision):
                result = body()
        except Exception:
            self._selector.observe(
                decision, simulated=0.0, wall=perf_counter() - t0,
                outcome="error",
            )
            raise
        self._selector.observe(
            decision,
            simulated=result.seconds,
            wall=perf_counter() - t0,
            outcome="degraded" if result.degraded else "ok",
        )
        return replace(
            result, arm=decision.arm.name, explored=decision.explored
        )

    # -- tracing ---------------------------------------------------------
    def _traced_request(
        self,
        kind: str,
        fn: Callable[[], SubmitResult],
        *,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        slo_class: Optional[str] = None,
    ) -> SubmitResult:
        """Run one request under a fresh trace and feed the SLO monitor.

        Opens a new trace context (root ``serve.request`` span) for the
        whole request -- every stage span, shard-worker span, retry
        attempt and device dispatch recorded while it is active joins
        this request's trace.  Request wall latency is observed into
        the SLO monitor whether the request succeeds or raises (a
        failing request is still a served latency), and into the
        ``slo_class`` priority-class monitor -- the class view works on
        any tracing server, front door or not, while ``priority`` only
        *annotates the span* when admission resolved it (an anonymous
        server's traces stay byte-identical to before).
        """
        ctx = TraceContext.root(self.trace_recorder)
        attrs: Dict[str, Any] = {"kind": kind}
        if tenant is not None:
            attrs["tenant"] = tenant
        if priority is not None:
            attrs["priority"] = priority
        t0 = perf_counter()
        try:
            with activate_trace(ctx):
                with span("serve.request", self.registry, attrs=attrs):
                    result = fn()
        finally:
            elapsed = perf_counter() - t0
            # Exemplar first: a breach fired by the SLO observe below
            # snapshots metrics, and the bundle should already carry
            # this request's trace id against its latency bucket.
            if self._m_request_seconds is not None:
                self._m_request_seconds.observe(
                    elapsed, exemplar=ctx.trace_id
                )
            if self.slo is not None:
                self.slo.observe(elapsed)
            if slo_class is not None:
                class_monitor = self.slo_by_class.get(slo_class)
                if class_monitor is not None:
                    class_monitor.observe(elapsed)
        return replace(result, trace_id=ctx.trace_id)

    def health_snapshot(self) -> Dict[str, Any]:
        """The SLO monitor's point-in-time health (tracing servers only).

        The snapshot's ``classes`` key holds one nested snapshot per
        priority class -- every tracing server has them (requests
        without an explicit priority count into ``latency``), so the
        class view does not depend on an admission policy being set.

        Raises
        ------
        DeviceError
            When the server was built without a tracing policy.
        """
        if self.slo is None:
            raise DeviceError(
                "health_snapshot() requires tracing=TracingPolicy(...)"
            )
        snapshot = self.slo.health_snapshot()
        if self.slo_by_class:
            snapshot["classes"] = {
                priority: monitor.health_snapshot()
                for priority, monitor in self.slo_by_class.items()
            }
        return snapshot

    # -- serving ---------------------------------------------------------
    def submit(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        *,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> SubmitResult:
        """Serve one SpMV request: admit, fingerprint, plan-or-hit, execute.

        ``tenant``/``priority``/``deadline`` feed the multi-tenant
        front door when an ``admission`` policy is configured -- an
        over-rate, over-bound or deadline-infeasible request sheds
        *here* with the matching exception before any planning work.
        Without a policy they merely stamp the result (``deadline`` is
        a relative latency budget in seconds and is ignored).
        """
        self._check_open()
        return self._admitted_request(
            "single",
            tenant=tenant, priority=priority, deadline=deadline,
            fn=lambda t, ne: self._submit_inner(matrix, x, t,
                                                no_explore=ne),
        )

    def _admitted_request(
        self,
        kind: str,
        *,
        tenant: Optional[str],
        priority: Optional[str],
        deadline: Optional[float],
        fn: Callable[[str, bool], SubmitResult],
    ) -> SubmitResult:
        """Front-door admission + tracing wrapper around one request.

        ``fn`` receives the resolved tenant and a ``no_explore`` flag:
        requests carrying a deadline must never pay for the online
        selector's exploration (with a front door the ticket decides
        via :meth:`~repro.serve.frontdoor.FrontDoor.exploration_allowed`;
        without one, any explicit ``deadline`` argument gates it).
        """
        bb = self.blackbox
        t_flight = perf_counter() if bb is not None else 0.0
        resolved_tenant = DEFAULT_TENANT if tenant is None else tenant
        ticket = None
        if self.frontdoor is not None:
            ticket = self.frontdoor.admit(
                resolved_tenant, priority=priority, deadline=deadline
            )
            resolved_priority = ticket.priority
            no_explore = not self.frontdoor.exploration_allowed(ticket)
        else:
            resolved_priority = "latency" if priority is None else priority
            no_explore = deadline is not None
        try:
            if self.trace_recorder is not None:
                # Tenant/priority only annotate traces when the front
                # door is on -- an anonymous server's spans (and golden
                # trace exports) stay byte-identical to before.  The
                # per-class SLO monitor observes either way.
                result = self._traced_request(
                    kind, lambda: fn(resolved_tenant, no_explore),
                    tenant=None if ticket is None else resolved_tenant,
                    priority=None if ticket is None else resolved_priority,
                    slo_class=resolved_priority,
                )
            else:
                result = fn(resolved_tenant, no_explore)
        finally:
            if ticket is not None:
                self.frontdoor.release(ticket)
        if (resolved_tenant != DEFAULT_TENANT
                or resolved_priority != "latency"):
            result = replace(
                result, tenant=resolved_tenant, priority=resolved_priority
            )
        if bb is not None:
            bb.record_request(
                result, kind=kind, wall=perf_counter() - t_flight
            )
        return result

    def _submit_inner(
        self, matrix: CSRMatrix, x: np.ndarray,
        tenant: str = DEFAULT_TENANT, *, no_explore: bool = False,
    ) -> SubmitResult:
        if self._scheduler is not None:
            return self._coalesced_submit(matrix, x, tenant)
        return self._execute(matrix, check_spmv_operand(matrix.ncols, x),
                             no_explore)

    def submit_batch(
        self,
        matrix: CSRMatrix,
        X: np.ndarray,
        *,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> SubmitResult:
        """Serve ``k`` right-hand sides in one request.

        ``X`` is an ``(ncols, k)`` block; after validation it takes the
        same request body as :meth:`submit`'s vector, and column ``j``
        of the result is bit-identical to ``submit(matrix, X[:, j]).y``.
        The plan and its binning overhead are charged once for the
        block; kernel launches are charged once per *pass* -- a single
        pass when ``k <= max_rhs`` (or no cap is set), one pass per
        column block otherwise, since each block is physically a
        separate dispatch sequence.  A block with no columns runs no
        pass at all.

        ``tenant``/``priority``/``deadline`` behave as in
        :meth:`submit`; a k-wide batch costs the tenant one admission
        token (the front door admits *requests*, not columns).
        """
        self._check_open()
        return self._admitted_request(
            "batch",
            tenant=tenant, priority=priority, deadline=deadline,
            fn=lambda t, ne: self._direct_submit_batch(matrix, X,
                                                       no_explore=ne),
        )

    def _direct_submit_batch(
        self, matrix: CSRMatrix, X: np.ndarray, *, no_explore: bool = False,
    ) -> SubmitResult:
        """Batch path without the closed-check.

        The coalescing scheduler flushes its pending groups through
        this during :meth:`close` -- after ``_closed`` is already set,
        which is exactly why the public wrapper owns the check.
        """
        return self._execute(matrix, check_spmm_operand(matrix.ncols, X),
                             no_explore)

    def _execute(
        self, matrix: CSRMatrix, rhs: np.ndarray, no_explore: bool
    ) -> SubmitResult:
        """Fingerprint once, decide an arm when learning, then serve.

        ``rhs`` is already validated: a vector or an ``(ncols, k)``
        block, and its shape is all that tells the two apart below.
        """
        with span("serve.fingerprint", self.registry) as sp:
            fp = self._fingerprints.fingerprint(matrix)
        self._observe_stage("fingerprint", sp.seconds)
        if self._selector is None:
            return self._serve(matrix, fp, rhs)
        return self._learned_request(
            matrix, fp, no_explore, lambda: self._serve(matrix, fp, rhs)
        )

    def _serve(
        self, matrix: CSRMatrix, fp: MatrixFingerprint, rhs: np.ndarray
    ) -> SubmitResult:
        """The one execution body, for a vector or an ``(ncols, k)`` block.

        Sharded servers hand the request to the sharded executor (which
        plans, retries and degrades per shard); otherwise the plan comes
        from the cache and :func:`~repro.serve.batch.run_cached` runs it,
        through the resilient executor when one is configured.
        """
        plan, shards = None, None
        if self._sharded is not None:
            with span("serve.execute", self.registry) as sp:
                res = (
                    self._sharded.run_spmm(matrix, rhs, max_rhs=self.max_rhs,
                                           fingerprint=fp)
                    if rhs.ndim == 2 else
                    self._sharded.run_spmv(matrix, rhs, fingerprint=fp)
                )
            hit, attempts, shards = res.cache_hit, res.attempts, res.summary
            degraded = bool(shards.degraded_shards)
        else:
            plan, hit = self._plan_for(matrix, fp)
            with span("serve.execute", self.registry) as sp:
                res, plan, attempts, degraded = run_cached(
                    self.device, self.cache, fp, plan, matrix, rhs,
                    max_rhs=self.max_rhs, resilient=self._resilient,
                    on_degrade=lambda cause: self._degrade_plan(fp, cause),
                )
        self._account(sp.seconds, res, batch=rhs.ndim == 2)
        return SubmitResult(
            y=res.y,
            seconds=res.seconds,
            n_dispatches=res.n_dispatches,
            cache_hit=hit,
            fingerprint=fp,
            plan=plan,
            attempts=attempts,
            degraded=degraded,
            shards=shards,
        )

    def _account(self, execute_wall: float, res, *, batch: bool) -> None:
        """Count one served request; ``res`` is a device or sharded result."""
        with self._lock:
            self._requests += 1
            self._batch_requests += 1 if batch else 0
            self._rhs_served += res.n_rhs
            self._dispatch_sequences += 1
            self._kernel_launches += res.n_dispatches
            self._simulated_seconds += res.seconds
            self._stage_seconds["execute"] += execute_wall
        self._m_requests["batch" if batch else "single"].inc()
        self._m_rhs.inc(res.n_rhs)
        self._m_launches.inc(res.n_dispatches)
        self._m_sim_seconds.inc(res.seconds)
        self._m_stage["execute"].observe(execute_wall)

    # -- cache control ---------------------------------------------------
    def invalidate(self, matrix: CSRMatrix) -> bool:
        """Drop every cached artefact for this matrix's pattern.

        Invalidation must reach every layer that memoised something
        derived from the pattern, or "invalidated" traffic keeps being
        served from stale state:

        - the matrix's fingerprint-cache entries -- its identity entry
          and its structure's stored copy -- so the next submit of this
          object, or of any copy of its structure, re-hashes instead of
          trusting the memoised fingerprint;
        - the plan-cache entry for the pattern;
        - when sharded: the sharded executor's (descriptors, plans)
          shard set, its per-shard plan-cache entries, and -- on the
          process backend -- the pre-pickled spec blobs plus a
          generation bump that forces worker-side bound-plan caches to
          rebind on the next dispatch.

        Returns True when any cached state was dropped.
        """
        fp = self._fingerprints.fingerprint(matrix)
        self._fingerprints.invalidate(matrix)
        dropped = self.cache.invalidate(fp)
        if self._sharded is not None:
            dropped |= self._sharded.invalidate(fp.digest)
        return dropped

    def clear_cache(self) -> None:
        """Drop every cached plan *and* fingerprint (counters survive).

        Clears all three memoisation layers together: the plan cache,
        both fingerprint-cache tiers (so every matrix object, and every
        fresh copy of a structure seen before, re-hashes on its next
        submit), and -- when sharded -- the shard layer's shard sets,
        per-shard plans and backend blobs, with a generation bump so
        process-backend workers rebind.  Leaving any of them warm would
        make "clear" a lie: a post-clear submit must behave exactly like
        a first request, except that results are of course unchanged.
        """
        self.cache.clear()
        self._fingerprints.clear()
        if self._sharded is not None:
            self._sharded.clear_caches()

    # -- observability ---------------------------------------------------
    def stats(self) -> ServerStats:
        """Immutable snapshot of all serving counters."""
        with self._lock:
            return ServerStats(
                requests=self._requests,
                batch_requests=self._batch_requests,
                rhs_served=self._rhs_served,
                dispatch_sequences=self._dispatch_sequences,
                kernel_launches=self._kernel_launches,
                simulated_seconds=self._simulated_seconds,
                stage_seconds=dict(self._stage_seconds),
                cache=self.cache.stats(),
                resilience=(
                    self._resilient.stats()
                    if self._resilient is not None else
                    self._sharded.resilience_stats()
                    if self._sharded is not None
                    and self._sharded.resilience is not None else None
                ),
                scheduler=(
                    self._scheduler.stats()
                    if self._scheduler is not None else None
                ),
                shards=(
                    self._sharded.stats()
                    if self._sharded is not None else None
                ),
                fingerprints=self._fingerprints.stats(),
                frontdoor=(
                    self.frontdoor.stats()
                    if self.frontdoor is not None else None
                ),
                learning=(
                    self._selector.stats()
                    if self._selector is not None else None
                ),
                blackbox=(
                    self.blackbox.stats()
                    if self.blackbox is not None else None
                ),
            )
