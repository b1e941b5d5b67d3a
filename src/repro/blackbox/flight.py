"""The flight recorder: a bounded ring of per-request records.

Aggregate metrics answer "how is the fleet doing"; the flight recorder
answers "what were the last N requests, exactly" -- which tenant rode
which arm onto which plan, whether the cache hit, how many resilience
attempts it took and how long it all was.  When an incident trigger
fires, the tail of this ring is the forensic record that goes into the
debug bundle; between incidents it costs one dataclass and one
lock-guarded append per request, and nothing at all on an idle server.

The ring is deliberately structured (a frozen dataclass per request,
not log lines): the doctor groups, sorts and quantiles these records,
and a bundle's ``flight.jsonl`` round-trips through ``as_dict``.  The
lock, capacity, drop count, tail and JSONL rendering come from
:class:`~repro.observe.ring.BoundedRing`; this module adds the record
type, its sequence numbers and :class:`FlightRecorderStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.observe.ring import BoundedRing

__all__ = ["RequestRecord", "FlightRecorder", "FlightRecorderStats"]


@dataclass(frozen=True)
class RequestRecord:
    """One served request, as the flight recorder saw it."""

    #: Monotone sequence number (survives ring eviction).
    seq: int
    #: ``"single"`` or ``"batch"``.
    kind: str
    #: Tenant the request was attributed to.
    tenant: str
    #: Priority class (``latency`` / ``batch``).
    priority: str
    #: Structural fingerprint digest of the matrix served.
    digest: str
    #: Plan provenance (``tuner``/``heuristic``/``fallback``); ``None``
    #: for sharded executions (each shard plans independently).
    plan_source: Optional[str]
    #: Distinct kernels in the executed plan, comma-joined and sorted
    #: (``"subvector8,vector"``); ``""`` when the plan is per-shard.
    kernels: str
    #: Binning scheme of the executed plan; ``None`` when sharded.
    scheme: Optional[str]
    #: True when the plan came from the cache.
    cache_hit: bool
    #: Shard count (0 = unsharded execution).
    shards: int
    #: Shard execution backend (``inline``/``process``);
    #: ``None`` when the server runs unsharded.
    backend: Optional[str]
    #: Requests sharing this request's dispatch (1 = no coalescing).
    coalesced_width: int
    #: Tuned-plan attempts the resilience layer spent.
    attempts: int
    #: True when the serial fallback produced the result.
    degraded: bool
    #: True when the online selector explored on this request.
    explored: bool
    #: Arm the request was served under; ``None`` without learning.
    arm: Optional[str]
    #: End-to-end wall seconds for this request.
    wall_seconds: float
    #: Simulated device seconds the execution was accounted.
    simulated_seconds: float
    #: Trace id when the server traces, else ``None``.
    trace_id: Optional[str]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "tenant": self.tenant,
            "priority": self.priority,
            "digest": self.digest,
            "plan_source": self.plan_source,
            "kernels": self.kernels,
            "scheme": self.scheme,
            "cache_hit": self.cache_hit,
            "shards": self.shards,
            "backend": self.backend,
            "coalesced_width": self.coalesced_width,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "explored": self.explored,
            "arm": self.arm,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "trace_id": self.trace_id,
        }


@dataclass(frozen=True)
class FlightRecorderStats:
    """Point-in-time accounting of a flight recorder."""

    recorded: int
    dropped: int
    size: int
    capacity: int


class FlightRecorder(BoundedRing[RequestRecord]):
    """Thread-safe bounded ring of :class:`RequestRecord` rows.

    Oldest rows are displaced first and counted in :attr:`dropped`,
    never silently; each row's ``seq`` is assigned under the ring's
    lock, so sequence numbers follow append order.
    """

    def __init__(self, capacity: int = 2048):
        super().__init__(capacity)

    def record(self, **fields: Any) -> RequestRecord:
        """Append one request; the recorder assigns the sequence number."""
        return self.append(
            build=lambda seq: RequestRecord(seq=seq, **fields)
        )

    def stats(self) -> FlightRecorderStats:
        """Recorded, displaced and retained counts from one read."""
        recorded, dropped, size = self.counts()
        return FlightRecorderStats(
            recorded=recorded,
            dropped=dropped,
            size=size,
            capacity=self.capacity,
        )
