"""End-to-end request tracing, kernel profiling and SLO monitoring.

The serving stack (``repro.serve`` + ``repro.shard`` +
``repro.resilient``) executes one request across several threads and,
under coalescing, merges several requests into one device dispatch.
This package makes that execution *legible*:

- :class:`TraceContext` / :func:`capture_context` carry a request's
  identity across thread boundaries (the observe layer's spans are
  per-thread; contexts are the explicit hand-off);
- :class:`TraceRecorder` collects completed spans in a
  :class:`~repro.observe.ring.BoundedRing` and exports them as Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto) or a plain-text
  per-request timeline;
- :class:`KernelProfiler` evaluates the analytical device model into
  per-(U, bin, kernel) lane-occupancy / memory-vs-compute / roofline
  reports;
- :class:`SlidingQuantiles` + :class:`SLOMonitor` turn request
  latencies into p50/p95/p99 gauges, breach counters and a
  ``health_snapshot()``.

Tracing is strictly opt-in: with no trace activated, the observe
layer's spans take their historical fast path and the serving stack
adds no work (the same design as ``NULL_REGISTRY``).
"""

from repro.trace.context import TraceContext, capture_context, reset_ids
from repro.trace.profiler import DispatchProfile, KernelProfiler, ProfileReport
from repro.trace.quantiles import SlidingQuantiles
from repro.trace.recorder import SpanRecord, TraceRecorder
from repro.trace.slo import SLOMonitor, SLOTarget, TracingPolicy

__all__ = [
    "TraceContext",
    "capture_context",
    "reset_ids",
    "TraceRecorder",
    "SpanRecord",
    "KernelProfiler",
    "ProfileReport",
    "DispatchProfile",
    "SlidingQuantiles",
    "SLOMonitor",
    "SLOTarget",
    "TracingPolicy",
]
