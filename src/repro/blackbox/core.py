"""The blackbox orchestrator: flight recording and triggered bundles.

One :class:`Blackbox` instance rides inside an
:class:`~repro.serve.server.SpMVServer` (``blackbox=BlackboxPolicy()``).
It does three things:

1. **records** every served request into a bounded
   :class:`~repro.blackbox.flight.FlightRecorder` ring;
2. **listens** for incident signals -- SLO breaches (the monitor's
   breach callback), circuit-breaker opens and worker-pool crashes
   (registry events), shed-rate spikes (the front door's shed hook) and
   degraded requests (observed while recording);
3. on a signal, **writes a debug bundle** -- rate-limited, bounded in
   count, and never allowed to fail the request that tripped it (a
   broken disk must not turn a latency breach into an error response).

All timing rides an injectable clock, so the trigger/rate-limit
behaviour is deterministic under test.  Without a ``bundle_dir`` the
blackbox still records flight data and trigger history (``stats()``),
it just never touches the filesystem.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.blackbox.bundle import BUNDLE_SCHEMA, MANIFEST_NAME, write_bundle
from repro.blackbox.flight import FlightRecorder, FlightRecorderStats
from repro.observe.export import to_json, to_prometheus_text
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.ring import BoundedRing

__all__ = ["BlackboxPolicy", "Blackbox", "BlackboxStats", "TRIGGER_REASONS"]

#: Every trigger reason the blackbox understands.
TRIGGER_REASONS: Tuple[str, ...] = (
    "slo_breach", "breaker_open", "worker_crash", "shed_spike", "degraded",
)

#: Registry event names that fire triggers (reason == event name).
_EVENT_TRIGGERS = frozenset({"breaker_open", "worker_crash"})


@dataclass(frozen=True)
class BlackboxPolicy:
    """How a server's blackbox behaves; pass to ``SpMVServer(blackbox=...)``."""

    #: Requests retained by the flight-recorder ring.
    flight_capacity: int = 2048
    #: Directory debug bundles are written under; ``None`` = record
    #: flight data and trigger history only, never write files.
    bundle_dir: Optional[str] = None
    #: Minimum clock seconds between two bundle writes; triggers inside
    #: the window are counted as suppressed.
    min_bundle_interval_seconds: float = 30.0
    #: Oldest bundles are pruned past this many.
    max_bundles: int = 16
    #: Flight-recorder rows included in a bundle.
    flight_tail: int = 256
    #: Decision-log rows included in a bundle (learning servers).
    decision_tail: int = 256
    #: Trigger reasons that fire a bundle (subset of
    #: :data:`TRIGGER_REASONS`).
    trigger_on: Tuple[str, ...] = TRIGGER_REASONS
    #: Shed-spike detection: this many sheds inside the window trips
    #: the ``shed_spike`` trigger.
    shed_spike_threshold: int = 8
    shed_spike_window_seconds: float = 1.0
    #: Injectable time source (tests pin it; monotonicity not required,
    #: the rate limiter only compares recent values).
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.flight_capacity <= 0:
            raise ValueError(
                f"flight_capacity must be > 0, got {self.flight_capacity}"
            )
        if self.min_bundle_interval_seconds < 0:
            raise ValueError(
                f"min_bundle_interval_seconds must be >= 0, got "
                f"{self.min_bundle_interval_seconds}"
            )
        if self.max_bundles <= 0:
            raise ValueError(
                f"max_bundles must be > 0, got {self.max_bundles}"
            )
        if self.shed_spike_threshold <= 0:
            raise ValueError(
                f"shed_spike_threshold must be > 0, got "
                f"{self.shed_spike_threshold}"
            )
        unknown = set(self.trigger_on) - set(TRIGGER_REASONS)
        if unknown:
            raise ValueError(
                f"unknown trigger reasons {sorted(unknown)}; choose from "
                f"{TRIGGER_REASONS}"
            )


@dataclass(frozen=True)
class BlackboxStats:
    """Point-in-time accounting of a blackbox."""

    flight: FlightRecorderStats
    #: Trigger counts by reason (only reasons that fired appear).
    triggers: Dict[str, int] = field(default_factory=dict)
    bundles_written: int = 0
    bundles_suppressed: int = 0
    bundle_errors: int = 0
    #: Path of the newest bundle, when any was written.
    last_bundle: Optional[str] = None
    #: Trigger-history entries displaced by newer ones (the history
    #: keeps the latest 64).
    history_dropped: int = 0

    def describe(self) -> str:
        """Readable summary (CLI / logs)."""
        fired = ", ".join(
            f"{reason}={n}" for reason, n in sorted(self.triggers.items())
        ) or "none"
        lines = [
            f"flight recorder    : {self.flight.size}/"
            f"{self.flight.capacity} requests retained "
            f"({self.flight.recorded} recorded, {self.flight.dropped} "
            f"displaced)",
            f"triggers           : {fired}"
            + (f" ({self.history_dropped} oldest displaced from history)"
               if self.history_dropped else ""),
            f"debug bundles      : {self.bundles_written} written, "
            f"{self.bundles_suppressed} rate-limited"
            + (f", {self.bundle_errors} failed" if self.bundle_errors
               else ""),
        ]
        if self.last_bundle:
            lines.append(f"last bundle        : {self.last_bundle}")
        return "\n".join(lines)


def _json_default(obj: Any) -> Any:
    """Serialize the stragglers (numpy scalars, enums, paths)."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


class Blackbox:
    """Flight recorder + incident triggers for one server (see module doc).

    Built by :class:`~repro.serve.server.SpMVServer` from a
    :class:`BlackboxPolicy`; standalone construction is supported for
    tests (``bind`` wires the event sink, ``close`` removes it).
    """

    def __init__(
        self,
        policy: BlackboxPolicy = BlackboxPolicy(),
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy = policy
        self.registry = get_registry() if registry is None else registry
        self.flight = FlightRecorder(capacity=policy.flight_capacity)
        self._clock = policy.clock
        self._server = None
        self._backend_label: Optional[str] = None
        self._lock = threading.Lock()
        self._bound = False
        self._last_bundle_at: Optional[float] = None
        self._trigger_counts: Dict[str, int] = {}
        self._bundles_written = 0
        self._bundles_suppressed = 0
        self._bundle_errors = 0
        self._last_bundle: Optional[str] = None
        self._bundle_seq = 0
        self._history: BoundedRing[Dict[str, Any]] = BoundedRing(64)
        self._sheds: "deque[float]" = deque()
        # Breach triggers parked until the offending request lands in
        # the flight ring (see on_slo_breach); thread-local because the
        # breach and the flush happen on the request's own thread.
        self._tls = threading.local()
        self._m_written = self.registry.counter(
            "blackbox_bundles_written_total",
            help_text="Debug bundles written on incident triggers.",
        )
        self._m_suppressed = self.registry.counter(
            "blackbox_bundles_suppressed_total",
            help_text="Bundle triggers suppressed by the rate limit.",
        )
        self._m_errors = self.registry.counter(
            "blackbox_bundle_errors_total",
            help_text="Bundle writes that failed (I/O or serialization).",
        )

    # -- lifecycle -------------------------------------------------------
    def bind(self, server) -> None:
        """Attach to a server: resolve layout labels, hook the registry.

        The event sink catches ``breaker_open`` (resilience layer) and
        ``worker_crash`` (process shard backend) emissions from any
        component sharing the server's registry.
        """
        self._server = server
        sharded = getattr(server, "_sharded", None)
        if sharded is not None:
            self._backend_label = sharded.policy.backend.value
        if not self._bound:
            self.registry.add_event_sink(self._on_event)
            self._bound = True

    def close(self) -> None:
        """Flush parked breach triggers, detach the event sink (idempotent)."""
        self._flush_deferred()
        if self._bound:
            self._bound = False
            try:
                self.registry.remove_event_sink(self._on_event)
            except ValueError:  # pragma: no cover - already removed
                pass

    # -- feeding ---------------------------------------------------------
    def record_request(self, result, *, kind: str, wall: float):
        """Record one served request; fires the ``degraded`` trigger."""
        plan = result.plan
        if plan is not None:
            kernels = ",".join(sorted(set(plan.bin_kernels.values())))
            plan_source: Optional[str] = plan.source
            scheme: Optional[str] = plan.scheme.name
        else:
            kernels, plan_source, scheme = "", None, None
        record = self.flight.record(
            kind=kind,
            tenant=result.tenant,
            priority=result.priority,
            digest=result.fingerprint.digest,
            plan_source=plan_source,
            kernels=kernels,
            scheme=scheme,
            cache_hit=result.cache_hit,
            shards=(result.shards.n_shards
                    if result.shards is not None else 0),
            backend=self._backend_label,
            coalesced_width=result.coalesced_width,
            attempts=result.attempts,
            degraded=result.degraded,
            explored=result.explored,
            arm=result.arm,
            wall_seconds=wall,
            simulated_seconds=result.seconds,
            trace_id=result.trace_id,
        )
        if result.degraded:
            self.trigger("degraded", detail={
                "digest": record.digest,
                "tenant": record.tenant,
                "attempts": record.attempts,
            })
        self._flush_deferred()
        return record

    def on_slo_breach(
        self, objective: str, seconds: float, bound: float
    ) -> None:
        """Breach-callback hook for :class:`~repro.trace.slo.SLOMonitor`.

        The monitor calls this from inside the request's tracing
        wrapper -- *before* the server records the request into the
        flight ring.  Firing immediately would write a bundle whose
        flight tail misses the very request that breached, so the
        trigger is parked (per thread: breach and record happen on the
        request's own thread) and flushed by :meth:`record_request`
        microseconds later.  A breach whose request then raises flushes
        with the thread's next request, or at :meth:`close`.
        """
        pending = getattr(self._tls, "pending", None)
        if pending is None:
            pending = self._tls.pending = []
        pending.append(("slo_breach", {
            "objective": objective,
            "latency_seconds": seconds,
            "bound_seconds": bound,
        }))

    def _flush_deferred(self) -> None:
        """Fire this thread's parked breach triggers, oldest first."""
        pending = getattr(self._tls, "pending", None)
        if not pending:
            return
        self._tls.pending = []
        for reason, detail in pending:
            self.trigger(reason, detail=detail)

    def note_shed(self, tenant: str, reason: str) -> None:
        """Shed hook for :class:`~repro.serve.frontdoor.FrontDoor`.

        Counts sheds in a sliding clock window; crossing the threshold
        fires one ``shed_spike`` trigger and resets the window (so one
        sustained storm is one spike, not a spike per shed).
        """
        now = self._clock()
        window = self.policy.shed_spike_window_seconds
        with self._lock:
            self._sheds.append(now)
            while self._sheds and now - self._sheds[0] > window:
                self._sheds.popleft()
            spiking = len(self._sheds) >= self.policy.shed_spike_threshold
            count = len(self._sheds)
            if spiking:
                self._sheds.clear()
        if spiking:
            self.trigger("shed_spike", detail={
                "sheds_in_window": count,
                "window_seconds": window,
                "last_tenant": tenant,
                "last_reason": reason,
            })

    def _on_event(self, event) -> None:
        if event.name in _EVENT_TRIGGERS:
            self.trigger(event.name, detail=dict(event.fields))

    # -- triggering ------------------------------------------------------
    def trigger(
        self, reason: str, *, detail: Optional[Dict[str, Any]] = None
    ) -> Optional[Path]:
        """Fire one trigger; returns the bundle path when one was written.

        Rate limit: at most one bundle per
        ``min_bundle_interval_seconds``; suppressed triggers are still
        counted and kept in the trigger history (the next bundle's
        manifest shows what fired during the quiet window).  The write
        itself happens outside the lock -- concurrent triggers contend
        only on the decision, and exactly one wins the slot.
        """
        if reason not in self.policy.trigger_on:
            return None
        detail = dict(detail or {})
        now = self._clock()
        with self._lock:
            self._trigger_counts[reason] = (
                self._trigger_counts.get(reason, 0) + 1
            )
            if self.policy.bundle_dir is None:
                self._history.append({
                    "at": now, "reason": reason, "action": "recorded",
                    "detail": detail,
                })
                return None
            limited = (
                self._last_bundle_at is not None
                and now - self._last_bundle_at
                < self.policy.min_bundle_interval_seconds
            )
            if limited:
                self._bundles_suppressed += 1
                self._history.append({
                    "at": now, "reason": reason, "action": "suppressed",
                    "detail": detail,
                })
            else:
                # Reserve the slot before the (slow) write so a
                # concurrent trigger storm produces exactly one bundle.
                self._last_bundle_at = now
                self._bundle_seq += 1
                seq = self._bundle_seq
                self._history.append({
                    "at": now, "reason": reason, "action": "bundle",
                    "detail": detail,
                })
        if limited:
            self._m_suppressed.inc()
            return None
        try:
            files = self._snapshot(reason, detail, seq=seq, at=now)
            path = write_bundle(
                self.policy.bundle_dir,
                f"bundle-{seq:04d}-{reason}",
                files,
                max_bundles=self.policy.max_bundles,
            )
        except Exception as exc:
            # Forensics must never fail the request being served.
            with self._lock:
                self._bundle_errors += 1
                self._history.append({
                    "at": now, "reason": reason, "action": "error",
                    "detail": {"error": f"{type(exc).__name__}: {exc}"},
                })
            self._m_errors.inc()
            return None
        with self._lock:
            self._bundles_written += 1
            self._last_bundle = str(path)
        self._m_written.inc()
        return path

    # -- snapshotting ----------------------------------------------------
    def _snapshot(
        self, reason: str, detail: Dict[str, Any], *, seq: int, at: float
    ) -> Dict[str, str]:
        """Capture the bundle's files as text (filename -> content)."""
        server = self._server
        files: Dict[str, str] = {}
        files["metrics.json"] = to_json(self.registry, indent=2)
        files["metrics.prom"] = to_prometheus_text(self.registry)
        files["flight.jsonl"] = self.flight.to_jsonl(
            self.policy.flight_tail, default=_json_default
        )
        config: Dict[str, Any] = {}
        if server is not None:
            config = self._config_snapshot(server)
            recorder = getattr(server, "trace_recorder", None)
            if recorder is not None:
                files["trace.json"] = recorder.chrome_trace_json()
            selector = getattr(server, "selector", None)
            if selector is not None:
                files["decisions.jsonl"] = selector.log.to_jsonl(
                    self.policy.decision_tail, default=_json_default
                )
            server_doc: Dict[str, Any] = {
                "stats": asdict(server.stats()),
            }
            if getattr(server, "slo", None) is not None:
                server_doc["health"] = server.health_snapshot()
            files["server.json"] = json.dumps(
                server_doc, indent=2, sort_keys=True,
                default=_json_default,
            )
        with self._lock:  # history appends hold it: rows and count agree
            history_dropped = self._history.dropped
            history = self._history.records()
        manifest = {
            "schema": BUNDLE_SCHEMA,
            "seq": seq,
            "reason": reason,
            "detail": detail,
            "triggered_at": at,
            "trigger_history": history,
            "trigger_history_dropped": history_dropped,
            "config": config,
            "flight": asdict(self.flight.stats()),
            "files": sorted(files) + [MANIFEST_NAME],
        }
        files[MANIFEST_NAME] = json.dumps(
            manifest, indent=2, sort_keys=True, default=_json_default
        )
        return files

    @staticmethod
    def _config_snapshot(server) -> Dict[str, Any]:
        """The server's shape, for the manifest (no live objects)."""
        sharded = getattr(server, "_sharded", None)
        config: Dict[str, Any] = {
            "cache_capacity": getattr(
                getattr(server, "cache", None), "capacity", None
            ),
            "max_rhs": getattr(server, "max_rhs", None),
            "device": type(getattr(server, "device", None)).__name__,
            "tracing": getattr(server, "tracing", None) is not None,
            "admission": getattr(server, "admission", None) is not None,
            "resilience": getattr(server, "resilience", None) is not None,
            "learning": getattr(server, "learning", None) is not None,
            "coalescing": getattr(server, "_scheduler", None) is not None,
            "sharding": None,
        }
        if sharded is not None:
            config["sharding"] = {
                "n_shards": sharded.policy.n_shards,
                "backend": sharded.policy.backend.value,
                "strategy": sharded.policy.strategy.value,
            }
        return config

    # -- reporting -------------------------------------------------------
    def trigger_history(self) -> List[Dict[str, Any]]:
        """The retained trigger history, oldest first (a copy)."""
        return [dict(entry) for entry in self._history.records()]

    def stats(self) -> BlackboxStats:
        with self._lock:
            return BlackboxStats(
                flight=self.flight.stats(),
                triggers=dict(self._trigger_counts),
                bundles_written=self._bundles_written,
                bundles_suppressed=self._bundles_suppressed,
                bundle_errors=self._bundle_errors,
                last_bundle=self._last_bundle,
                history_dropped=self._history.dropped,
            )
