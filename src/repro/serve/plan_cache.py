"""LRU cache of execution plans keyed by matrix fingerprint.

The cache is the amortisation mechanism of the serving layer: the first
request for a sparsity pattern pays feature extraction + classifier
consultation + binning + pricing; every later request with the same
pattern reuses the stored :class:`~repro.core.plan.ExecutionPlan` object
unchanged, together with its :class:`~repro.device.executor.BoundPlan`:
the one the planner priced its prediction with, kept by
:meth:`PlanCache.get_or_build` (the tuner binds as it plans), else bound
on first execution (see :meth:`PlanCache.bound`).  Plan and bound plan
share one entry, so invalidation, clearing and LRU eviction drop both
together.
Capacity is bounded (a server holding plans for millions of distinct
patterns would itself become the memory problem), with
least-recently-used eviction and observable hit/miss/eviction counters.

Concurrency: every operation takes an internal ``RLock``, so concurrent
``submit`` traffic from a thread pool cannot corrupt the ``OrderedDict``
or lose counter increments.  :meth:`get_or_build` holds the lock across
the builder call -- planning a pattern exactly once under concurrent
first requests (no thundering herd of duplicate planner runs) is worth
serialising the miss path; hits only take the lock briefly.

Observability: the hit/miss/eviction tallies are
:class:`~repro.observe.Counter` instruments (per-instance, read by the
:meth:`stats` compat shim exactly like the old bare ints), and the cache
additionally feeds the registry's aggregate ``plan_cache_*`` metrics and
emits a ``cache_eviction`` event per evicted entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.plan import ExecutionPlan
from repro.device.executor import BoundPlan, SimulatedDevice
from repro.formats.csr import CSRMatrix
from repro.observe.registry import Counter, MetricsRegistry, get_registry
from repro.serve.fingerprint import MatrixFingerprint

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`PlanCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: Entries dropped explicitly (device change, plan degradation).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, size={self.size}/{self.capacity}, "
            f"hit_rate={self.hit_rate:.1%})"
        )


class _Entry:
    """One cached plan and, once bound, its bound form."""

    __slots__ = ("plan", "bound")

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self.bound: Optional[BoundPlan] = None


class PlanCache:
    """Bounded fingerprint -> :class:`ExecutionPlan` LRU map (thread-safe).

    Parameters
    ----------
    capacity:
        Bound on stored plans; least-recently-used entries evict first.
    registry:
        Metrics registry receiving the aggregate ``plan_cache_*``
        counters, size gauge and ``cache_eviction`` events.  Defaults to
        the process-global registry; pass
        :data:`~repro.observe.NULL_REGISTRY` to opt out.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[MatrixFingerprint, _Entry]" = (
            OrderedDict()
        )
        # Per-instance tallies as metric instruments (the stats() shim
        # reads .value where it used to read bare ints).
        self._hits = Counter("plan_cache_hits")
        self._misses = Counter("plan_cache_misses")
        self._evictions = Counter("plan_cache_evictions")
        self._invalidations = Counter("plan_cache_invalidations")
        # Registry-level aggregates (shared across caches on purpose).
        self._registry = get_registry() if registry is None else registry
        self._m_hits = self._registry.counter(
            "plan_cache_hits_total",
            help_text="Plan-cache lookups served from cache.",
        )
        self._m_misses = self._registry.counter(
            "plan_cache_misses_total",
            help_text="Plan-cache lookups that had to build a plan.",
        )
        self._m_evictions = self._registry.counter(
            "plan_cache_evictions_total",
            help_text="Plans evicted by the LRU bound.",
        )
        self._m_invalidations = self._registry.counter(
            "plan_cache_invalidations_total",
            help_text="Plans dropped explicitly (invalidate calls that "
                      "found an entry).",
        )
        self._m_size = self._registry.gauge(
            "plan_cache_size", help_text="Plans currently cached."
        )

    # -- lookups ---------------------------------------------------------
    def get(self, fp: MatrixFingerprint) -> Optional[ExecutionPlan]:
        """The cached plan for ``fp`` (refreshing recency), else ``None``."""
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                self._misses.inc()
                self._m_misses.inc()
                return None
            self._entries.move_to_end(fp)
            self._hits.inc()
            self._m_hits.inc()
            return entry.plan

    def put(self, fp: MatrixFingerprint, plan: ExecutionPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full."""
        with self._lock:
            if fp in self._entries:
                self._entries.move_to_end(fp)
            self._entries[fp] = _Entry(plan)
            while len(self._entries) > self.capacity:
                evicted_fp, _ = self._entries.popitem(last=False)
                self._evictions.inc()
                self._m_evictions.inc()
                self._registry.emit(
                    "cache_eviction",
                    fingerprint=str(evicted_fp),
                    size=len(self._entries),
                    capacity=self.capacity,
                )
            self._m_size.set(len(self._entries))

    def get_or_build(
        self,
        fp: MatrixFingerprint,
        builder: Callable[[], ExecutionPlan],
    ) -> tuple[ExecutionPlan, bool]:
        """``(plan, was_hit)``; runs ``builder`` and stores on a miss.

        Holds the cache lock across ``builder`` so one pattern is never
        planned twice by racing first requests.  A plan built on a miss
        was planned for ``fp``'s structure, so its own bound form (when
        its planner bound it) becomes the entry's bound plan.
        """
        with self._lock:
            plan = self.get(fp)
            if plan is not None:
                return plan, True
            plan = builder()
            self.put(fp, plan)
            self._entries[fp].bound = plan.bound
            return plan, False

    def bound(
        self,
        fp: MatrixFingerprint,
        plan: ExecutionPlan,
        device: SimulatedDevice,
        matrix: CSRMatrix,
    ) -> BoundPlan:
        """``plan`` bound for ``device``, binding only when none fits.

        The bound plan is stored beside ``plan`` in ``fp``'s entry and
        rebound only if the device spec changes (a server whose device
        spec differs from its tuner's rebinds the planner's bound form).
        A plan that is no longer the entry's (invalidated or replaced
        since the caller looked it up) is bound for this call alone.
        Binding raises :class:`~repro.errors.DeviceError` for a
        malformed plan and stores nothing, so every request for it
        raises.
        """
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None or entry.plan is not plan:
                return plan.bind(device, matrix)
            if entry.bound is None or not entry.bound.binds(
                matrix, device.spec
            ):
                entry.bound = plan.bind(device, matrix)
            return entry.bound

    # -- invalidation ----------------------------------------------------
    def invalidate(self, fp: MatrixFingerprint) -> bool:
        """Drop one entry (device change, plan degradation); True if present.

        The resilient serving path calls this when a cached plan keeps
        failing, so the next request for the pattern re-plans instead of
        replaying the bad plan forever.
        """
        with self._lock:
            present = self._entries.pop(fp, None) is not None
            if present:
                self._invalidations.inc()
                self._m_invalidations.inc()
            self._m_size.set(len(self._entries))
            return present

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        with self._lock:
            self._entries.clear()
            self._m_size.set(0)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fp: MatrixFingerprint) -> bool:
        with self._lock:
            return fp in self._entries

    def stats(self) -> CacheStats:
        """Immutable snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=int(self._hits.value),
                misses=int(self._misses.value),
                evictions=int(self._evictions.value),
                size=len(self._entries),
                capacity=self.capacity,
                invalidations=int(self._invalidations.value),
            )
