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
and a bundle's ``flight.jsonl`` round-trips through ``as_dict``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

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


class FlightRecorder:
    """Thread-safe bounded ring of :class:`RequestRecord` rows.

    Ring semantics match the repo's other bounded recorders
    (:class:`~repro.trace.recorder.TraceRecorder`,
    :class:`~repro.learn.log.DecisionLog`): oldest rows are displaced
    first and counted in :attr:`dropped`, never silently.
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._records: "deque[RequestRecord]" = deque(maxlen=self.capacity)
        self._recorded = 0

    def record(self, **fields: Any) -> RequestRecord:
        """Append one request; the recorder assigns the sequence number."""
        with self._lock:
            record = RequestRecord(seq=self._recorded + 1, **fields)
            self._records.append(record)
            self._recorded += 1
        return record

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def dropped(self) -> int:
        """Records displaced by the ring so far."""
        with self._lock:
            return self._recorded - len(self._records)

    def records(self) -> List[RequestRecord]:
        """All retained records, oldest first (a copy)."""
        with self._lock:
            return list(self._records)

    def tail(self, n: int) -> List[RequestRecord]:
        """The newest ``n`` retained records, oldest first."""
        if n <= 0:
            return []
        with self._lock:
            records = list(self._records)
        return records[-n:]

    def stats(self) -> FlightRecorderStats:
        with self._lock:
            recorded = self._recorded
            size = len(self._records)
        return FlightRecorderStats(
            recorded=recorded,
            dropped=recorded - size,
            size=size,
            capacity=self.capacity,
        )
