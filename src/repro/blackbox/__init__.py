"""Incident-grade observability: flight recorder + triggered bundles.

This package is an **extension** over the paper: once the reproduction
serves live traffic, the gap between "the p99 gauge breached" and "this
tenant's matrix on this arm caused it" is an operations problem the
aggregate metrics in :mod:`repro.observe` cannot close.  The blackbox
closes it with three pieces:

- :mod:`repro.blackbox.flight` -- an always-on bounded ring of
  per-request :class:`RequestRecord` rows (tenant, arm, plan, cache
  hit, shard layout, resilience outcome, latency, trace id), built on
  :class:`~repro.observe.ring.BoundedRing`, as is the blackbox's
  trigger history;
- :mod:`repro.blackbox.core` -- the :class:`Blackbox` orchestrator:
  SLO-breach / breaker-open / worker-crash / shed-spike / degraded
  triggers fire a rate-limited debug-bundle write;
- :mod:`repro.blackbox.bundle` / :mod:`repro.blackbox.doctor` -- the
  bundle directory format, its loader, and the ``python -m repro
  doctor`` incident-report renderer.

Wire it with ``SpMVServer(blackbox=BlackboxPolicy(...))``; without the
policy the serving hot path carries no recorder state at all.
"""

from repro.blackbox.bundle import (
    BUNDLE_SCHEMA,
    BundleError,
    DebugBundle,
    find_bundles,
    load_bundle,
    write_bundle,
)
from repro.blackbox.core import (
    TRIGGER_REASONS,
    Blackbox,
    BlackboxPolicy,
    BlackboxStats,
)
from repro.blackbox.doctor import render_report
from repro.blackbox.flight import (
    FlightRecorder,
    FlightRecorderStats,
    RequestRecord,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "Blackbox",
    "BlackboxPolicy",
    "BlackboxStats",
    "BundleError",
    "DebugBundle",
    "FlightRecorder",
    "FlightRecorderStats",
    "RequestRecord",
    "TRIGGER_REASONS",
    "find_bundles",
    "load_bundle",
    "render_report",
    "write_bundle",
]
