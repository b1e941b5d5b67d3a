"""Span recording: a bounded ring of completed spans plus exporters.

The :class:`TraceRecorder` is the sink every
:class:`~repro.trace.context.TraceContext` feeds: completed spans
become immutable :class:`SpanRecord` rows in a
:class:`~repro.observe.ring.BoundedRing` (bounded -- a serving process
traces forever, memory must not), which counts the rows it displaces
when sustained load outruns the capacity.

Two export surfaces:

- :meth:`TraceRecorder.chrome_trace` / :meth:`chrome_trace_json` --
  the Chrome trace-event format (``chrome://tracing`` / Perfetto
  loadable): one complete (``"ph": "X"``) event per span, timestamps
  in microseconds relative to the earliest recorded span, thread ids
  preserved so shard workers render as parallel tracks;
- :meth:`TraceRecorder.timeline` -- a plain-text per-request view
  (indent = parent depth, one line per span with offset/duration),
  for terminals and logs.

Connectivity: :meth:`reachable_spans` walks parent edges *and* fan-in
links from a trace root -- the acceptance check that a sharded,
coalesced, retried request still forms one connected trace.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.observe.ring import BoundedRing
from repro.observe.spans import Span

__all__ = ["SpanRecord", "TraceRecorder"]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, immutable and export-ready."""

    name: str
    trace_id: str
    span_id: str
    #: Parent span id within (or across) traces; ``None`` for a root.
    parent_span_id: Optional[str]
    #: ``perf_counter`` seconds at entry/exit.
    start: float
    end: float
    #: OS thread the span ran on.
    thread_id: int
    thread_name: str
    #: Flat attributes (shard id, attempt number, kernel name, ...).
    attrs: Mapping[str, Any] = field(default_factory=dict)
    #: ``(trace_id, span_id)`` fan-in references to other traces.
    links: Tuple[Tuple[str, str], ...] = ()

    @property
    def seconds(self) -> float:
        """Wall duration of the span."""
        return self.end - self.start


class TraceRecorder(BoundedRing[SpanRecord]):
    """Thread-safe bounded ring of :class:`SpanRecord` rows.

    Parameters
    ----------
    capacity:
        Most spans retained; older spans are displaced first and
        counted in :attr:`dropped`.
    registry:
        Optional metrics registry; when given, displaced spans also
        count into ``trace_spans_dropped_total`` so ring loss is
        visible on the same scrape as the latency it silently shapes.
    """

    def __init__(self, capacity: int = 4096, *, registry=None):
        counter = None
        if registry is not None:
            counter = registry.counter(
                "trace_spans_dropped_total",
                help_text="Completed spans displaced from the trace "
                          "recorder's ring.",
            )
        super().__init__(capacity, dropped_counter=counter)

    # -- recording -------------------------------------------------------
    def record_span(self, span: Span) -> None:
        """Convert one completed observe-layer span into a record."""
        if span.trace_id is None or span.span_id is None:
            return  # span completed outside any trace; nothing to keep
        thread = threading.current_thread()
        self.record(SpanRecord(
            name=span.name,
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_span_id=span.parent_span_id,
            start=span.start if span.start is not None else 0.0,
            end=span.end if span.end is not None else 0.0,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            attrs=dict(span.attrs) if span.attrs else {},
            links=tuple(span.links),
        ))

    def record(self, record: SpanRecord) -> None:
        """Append one record (ring semantics; oldest displaced first)."""
        self.append(record)

    # -- access ----------------------------------------------------------
    def records(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        """Recorded spans (optionally one trace's), oldest first."""
        rows = super().records()
        if trace_id is not None:
            rows = [r for r in rows if r.trace_id == trace_id]
        return rows

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in recording order."""
        seen: Dict[str, None] = {}
        for r in self.records():
            seen.setdefault(r.trace_id, None)
        return list(seen)

    def roots(self) -> List[SpanRecord]:
        """Spans with no parent (request/dispatch roots), oldest first."""
        return [r for r in self.records() if r.parent_span_id is None]

    # -- connectivity ----------------------------------------------------
    def reachable_spans(self, root_span_id: str) -> Set[str]:
        """Span ids reachable from ``root_span_id``.

        Follows parent/child edges and fan-in links *in both
        directions* (a span linking a reached span is reached, and a
        reached span's links are followed into their target traces), so
        the result is the full connected component -- identical from
        whichever span of it you start.  This is the formal meaning of
        "one connected trace per request" for executions that cross
        shard workers and coalesced dispatches.
        """
        rows = self.records()
        by_id = {r.span_id: r for r in rows}
        children: Dict[str, List[str]] = {}
        linked_from: Dict[str, List[str]] = {}
        for r in rows:
            if r.parent_span_id is not None:
                children.setdefault(r.parent_span_id, []).append(r.span_id)
            for _, target in r.links:
                linked_from.setdefault(target, []).append(r.span_id)
        reached: Set[str] = set()
        frontier = [root_span_id]
        while frontier:
            sid = frontier.pop()
            if sid in reached or sid not in by_id:
                continue
            reached.add(sid)
            frontier.extend(children.get(sid, ()))
            frontier.extend(linked_from.get(sid, ()))
            frontier.extend(target for _, target in by_id[sid].links)
            if by_id[sid].parent_span_id is not None:
                frontier.append(by_id[sid].parent_span_id)
        return reached

    # -- Chrome trace-event export ---------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event representation (JSON-ready dict).

        One complete event (``"ph": "X"``) per span; timestamps are
        microseconds relative to the earliest recorded span so the
        viewer opens at t=0.  Trace/span identity and links ride in
        ``args`` (viewable per event).
        """
        rows = self.records()
        t0 = min((r.start for r in rows), default=0.0)
        events: List[Dict[str, Any]] = []
        for r in rows:
            args: Dict[str, Any] = {
                "trace_id": r.trace_id,
                "span_id": r.span_id,
            }
            if r.parent_span_id is not None:
                args["parent_span_id"] = r.parent_span_id
            if r.links:
                args["links"] = [
                    {"trace_id": t, "span_id": s} for t, s in r.links
                ]
            args.update(r.attrs)
            events.append({
                "name": r.name,
                "cat": r.trace_id,
                "ph": "X",
                "ts": round((r.start - t0) * 1e6, 3),
                "dur": round(r.seconds * 1e6, 3),
                "pid": 1,
                "tid": r.thread_id,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self, *, indent: Optional[int] = None) -> str:
        """:meth:`chrome_trace`, serialised."""
        return json.dumps(self.chrome_trace(), indent=indent, sort_keys=True)

    # -- plain-text timeline ---------------------------------------------
    def timeline(self, trace_id: str) -> str:
        """Readable per-request timeline: indent = depth, one span/line.

        Spans print in start order; fan-in links render as ``<- N
        linked traces`` on the owning span's line.  Spans whose parent
        fell out of the ring render at depth 0 (better truncated than
        wrong).
        """
        rows = sorted(self.records(trace_id), key=lambda r: (r.start, r.span_id))
        if not rows:
            return f"(no spans recorded for trace {trace_id})"
        by_id = {r.span_id: r for r in rows}

        def depth(r: SpanRecord) -> int:
            d, cur, hops = 0, r, 0
            while (cur.parent_span_id is not None
                   and cur.parent_span_id in by_id and hops < 64):
                cur = by_id[cur.parent_span_id]
                d += 1
                hops += 1
            return d

        t0 = rows[0].start
        lines = [f"trace {trace_id} ({len(rows)} spans)"]
        for r in rows:
            extras = []
            if r.attrs:
                extras.append(
                    " ".join(f"{k}={v}" for k, v in sorted(r.attrs.items()))
                )
            if r.links:
                extras.append(f"<- {len(r.links)} linked trace(s)")
            suffix = ("  [" + "; ".join(extras) + "]") if extras else ""
            lines.append(
                f"  {'  ' * depth(r)}{r.name:<24s} "
                f"+{(r.start - t0) * 1e3:8.3f} ms "
                f"{r.seconds * 1e3:8.3f} ms"
                f"{suffix}"
            )
        return "\n".join(lines)
