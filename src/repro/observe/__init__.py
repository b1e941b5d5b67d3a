"""Observability layer: metrics, tracing spans, exporters, events.

This package is an **extension** over the paper (the reproduction's own
timing model lives in :mod:`repro.device`); it measures the *system
serving* the reproduction -- cache behaviour, stage latencies,
per-kernel dispatch counts -- so performance work is driven by data, in
the same spirit as the paper's measurement-driven tuning:

- :mod:`repro.observe.registry` -- counters / gauges / bucketed
  histograms behind a thread-safe :class:`MetricsRegistry`, plus the
  process-global default registry and the no-op :data:`NULL_REGISTRY`;
- :mod:`repro.observe.spans` -- ``with span("serve.plan"):`` nesting
  wall-clock tracing feeding ``span_seconds`` histograms, plus the
  cross-thread trace-context hooks (:func:`activate_trace`,
  :func:`capture_trace`, :func:`trace_event`) the :mod:`repro.trace`
  layer plugs into;
- :mod:`repro.observe.export` -- Prometheus text format and JSON
  snapshot rendering;
- :mod:`repro.observe.events` -- structured event objects and the
  recording sink (cache evictions, overflow-bin hits, planner
  fallbacks);
- :mod:`repro.observe.ring` -- :class:`BoundedRing`, the one bounded,
  drop-counting ring behind the recording sink, the trace recorder,
  the flight recorder, the decision log and the blackbox's trigger
  history.
"""

from repro.observe.events import Event, RecordingSink
from repro.observe.export import to_json, to_prometheus_text
from repro.observe.registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observe.ring import BoundedRing
from repro.observe.spans import (
    Span,
    activate_trace,
    capture_trace,
    current_span,
    current_trace,
    span,
    trace_event,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "Span",
    "span",
    "current_span",
    "activate_trace",
    "capture_trace",
    "current_trace",
    "trace_event",
    "Event",
    "RecordingSink",
    "BoundedRing",
    "to_prometheus_text",
    "to_json",
]
