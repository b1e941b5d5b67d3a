"""Tests for the observability layer (repro.observe)."""

import json
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
import pytest

from repro.blackbox import Blackbox, BlackboxPolicy, FlightRecorder
from repro.formats import CSRMatrix
from repro.learn import DecisionLog, DecisionRecord
from repro.observe import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    RecordingSink,
    current_span,
    set_registry,
    span,
    to_json,
    to_prometheus_text,
)
from repro.serve import SpMVServer
from repro.trace.recorder import SpanRecord, TraceRecorder


def _matrix(seed=0, nrows=200, ncols=200):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 10, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, ncols, rng=rng)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("reqs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("reqs").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("size")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_histogram_bucket_boundaries(self):
        """A value equal to a bound lands in that bucket (le = inclusive)."""
        h = Histogram("lat", buckets=(0.1, 0.2, 0.5))
        for v in (0.05, 0.1, 0.15, 0.2, 0.3, 9.0):
            h.observe(v)
        assert h.bucket_counts() == [2, 2, 1, 1]  # last is +Inf
        assert h.cumulative_counts() == [
            (0.1, 2), (0.2, 4), (0.5, 5), (float("inf"), 6),
        ]
        assert h.count == 6
        assert h.sum == pytest.approx(0.05 + 0.1 + 0.15 + 0.2 + 0.3 + 9.0)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(0.2, 0.1))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(0.1, 0.1))

    def test_default_latency_buckets_increasing(self):
        assert all(
            a < b
            for a, b in zip(DEFAULT_LATENCY_BUCKETS,
                            DEFAULT_LATENCY_BUCKETS[1:])
        )


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", {"kind": "x"})
        b = reg.counter("hits", {"kind": "x"})
        c = reg.counter("hits", {"kind": "y"})
        assert a is b and a is not c

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("size").set(2)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert [c["value"] for c in snap["counters"]] == [3.0]
        assert [g["value"] for g in snap["gauges"]] == [2.0]
        (hist,) = snap["histograms"]
        assert hist["count"] == 1 and hist["buckets"][-1]["cumulative"] == 1

    def test_help_text_kept_from_first_registration(self):
        reg = MetricsRegistry()
        reg.counter("hits", help_text="first")
        reg.counter("hits", help_text="second")
        assert reg.help_for("hits") == "first"

    def test_event_sinks(self):
        reg = MetricsRegistry()
        sink = RecordingSink()
        reg.add_event_sink(sink)
        reg.emit("cache_eviction", fingerprint="abc", size=3)
        reg.emit("planner_fallback", source="heuristic")
        assert [e.name for e in sink.events] == [
            "cache_eviction", "planner_fallback",
        ]
        assert sink.named("cache_eviction")[0].fields["size"] == 3
        reg.remove_event_sink(sink)
        reg.emit("cache_eviction")
        assert len(sink.events) == 2

    def test_recording_sink_bounded_ring(self):
        sink = RecordingSink(max_events=3)
        reg = MetricsRegistry()
        reg.add_event_sink(sink)
        for i in range(7):
            reg.emit("tick", i=i)
        assert [e.fields["i"] for e in sink.events] == [4, 5, 6]
        assert sink.dropped == 4

    def test_recording_sink_unbounded_by_default(self):
        sink = RecordingSink()
        reg = MetricsRegistry()
        reg.add_event_sink(sink)
        for i in range(300):
            reg.emit("tick", i=i)
        assert len(sink.events) == 300
        assert sink.dropped == 0


class TestSpans:
    def test_nesting_and_paths(self):
        reg = MetricsRegistry()
        assert current_span() is None
        with span("outer", reg) as outer:
            assert current_span() is outer
            with span("inner", reg) as inner:
                assert current_span() is inner
                assert inner.parent is outer
                assert inner.path == "outer/inner"
                assert inner.depth == 1
            assert current_span() is outer
        assert current_span() is None

    def test_timing_monotonicity(self):
        """An enclosing span can never be shorter than a nested one."""
        reg = MetricsRegistry()
        with span("outer", reg) as outer:
            with span("inner", reg) as inner:
                x = sum(range(2000))
                assert x > 0
        assert 0.0 < inner.seconds <= outer.seconds

    def test_feeds_span_histogram(self):
        reg = MetricsRegistry()
        with span("stage", reg):
            pass
        with span("stage", reg):
            pass
        h = reg.histogram("span_seconds", {"span": "stage"})
        assert h.count == 2
        assert h.sum >= 0.0

    def test_disabled_registry_still_times(self):
        with span("quiet", NULL_REGISTRY) as sp:
            sum(range(1000))
        assert sp.seconds > 0.0
        assert current_span() is None  # never pushed on the stack


PROM_GOLDEN = textwrap.dedent("""\
    # HELP demo_hits_total Lookups served from cache.
    # TYPE demo_hits_total counter
    demo_hits_total{tier="l1"} 5
    # HELP demo_lat_seconds Demo latency.
    # TYPE demo_lat_seconds histogram
    demo_lat_seconds_bucket{le="0.1"} 1
    demo_lat_seconds_bucket{le="0.5"} 2
    demo_lat_seconds_bucket{le="+Inf"} 3
    demo_lat_seconds_sum 1.35
    demo_lat_seconds_count 3
    # HELP demo_size Resident entries.
    # TYPE demo_size gauge
    demo_size 7
    """)


class TestExporters:
    def _demo_registry(self):
        reg = MetricsRegistry()
        reg.counter(
            "demo_hits_total", {"tier": "l1"},
            help_text="Lookups served from cache.",
        ).inc(5)
        reg.gauge("demo_size", help_text="Resident entries.").set(7)
        h = reg.histogram(
            "demo_lat_seconds", buckets=(0.1, 0.5),
            help_text="Demo latency.",
        )
        for v in (0.05, 0.3, 1.0):
            h.observe(v)
        return reg

    def test_prometheus_golden(self):
        assert to_prometheus_text(self._demo_registry()) == PROM_GOLDEN

    def test_prometheus_empty_registry(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_json_round_trips(self):
        snap = json.loads(to_json(self._demo_registry()))
        assert snap["counters"][0]["value"] == 5
        assert snap["gauges"][0]["value"] == 7
        (hist,) = snap["histograms"]
        assert hist["buckets"][-1]["le"] == "+Inf"
        assert hist["buckets"][-1]["cumulative"] == 3


class TestInstrumentedServing:
    """End-to-end: a served workload shows up in the registry."""

    def test_submit_populates_registry(self):
        reg = MetricsRegistry()
        server = SpMVServer(registry=reg)
        m = _matrix(5)
        for _ in range(3):
            server.submit(m, np.ones(m.ncols))
        text = to_prometheus_text(reg)
        assert 'serve_requests_total{kind="single"} 3' in text
        assert "plan_cache_hits_total 2" in text
        assert "plan_cache_misses_total 1" in text
        assert 'serve_stage_seconds_count{stage="execute"} 3' in text
        assert "device_dispatches_total" in text
        assert 'span_seconds_count{span="serve.plan"} 3' in text

    def test_null_registry_keeps_server_correct(self):
        server = SpMVServer(registry=NULL_REGISTRY)
        m = _matrix(6)
        x = np.ones(m.ncols)
        for _ in range(2):
            res = server.submit(m, x)
            np.testing.assert_allclose(res.y, m @ x, atol=1e-9)
        stats = server.stats()
        assert stats.requests == 2
        assert stats.cache.hits == 1 and stats.cache.misses == 1

    def test_noop_overhead_near_zero(self):
        """The submit hot path must not pay for disabled observability.

        Loose absolute bound (not a ratio): the per-request wall-time
        difference between a NULL_REGISTRY server and a fully
        instrumented one stays in the noise (< 5 ms/request), which is
        robust on shared CI machines.
        """
        m = _matrix(7)
        x = np.ones(m.ncols)
        n = 20

        def time_server(registry):
            server = SpMVServer(registry=registry)
            server.submit(m, x)  # warm the plan cache
            t0 = perf_counter()
            for _ in range(n):
                server.submit(m, x)
            return (perf_counter() - t0) / n

        t_null = time_server(NULL_REGISTRY)
        t_live = time_server(MetricsRegistry())
        assert t_null < t_live + 5e-3


class TestGlobalRegistry:
    def test_set_registry_swaps_and_restores(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            with span("global.stage"):
                pass
            assert mine.histogram(
                "span_seconds", {"span": "global.stage"}
            ).count == 1
        finally:
            assert set_registry(previous) is mine


# ----------------------------------------------------------------------
# Every recorder's ring under concurrent appends
# ----------------------------------------------------------------------
_THREADS, _PER_THREAD, _CAPACITY = 8, 500, 64

# Each factory returns ``(append(i), read() -> (size, dropped),
# snapshot)``; ``snapshot`` is a reader to run beside the writers, or
# ``None``.


def _trace_ring(reg):
    rec = TraceRecorder(capacity=_CAPACITY, registry=reg)
    return (lambda i: rec.record(SpanRecord(
        name="s", trace_id=f"t{i}", span_id=f"s{i}", parent_span_id=None,
        start=0.0, end=1.0, thread_id=1, thread_name="main",
    )), lambda: (len(rec), rec.dropped), None)


def _decision_ring(reg):
    log = DecisionLog(capacity=_CAPACITY)
    return (lambda i: log.append(DecisionRecord(
        seq=i, digest="d", key="k", arm="tree", explored=False,
        prior_seconds=1e-4, simulated_seconds=1e-4, wall_seconds=1e-3,
        outcome="ok", features=(1.0,), model_version=0,
    )), lambda: (len(log), log.stats().dropped), None)


def _sink_ring(reg):
    sink = RecordingSink(max_events=_CAPACITY, registry=reg)
    reg.add_event_sink(sink)
    return (lambda i: reg.emit("tick", i=i),
            lambda: (len(sink), sink.dropped),
            lambda: sink.named("tick"))


def _flight_ring(reg):
    rec = FlightRecorder(capacity=_CAPACITY)
    return (lambda i: rec.record(
        kind="single", tenant="t", priority="latency", digest="d",
        plan_source=None, kernels="", scheme=None, cache_hit=True,
        shards=0, backend=None, coalesced_width=1, attempts=1,
        degraded=False, explored=False, arm=None, wall_seconds=1e-3,
        simulated_seconds=1e-4, trace_id=None,
    ), lambda: (len(rec), rec.dropped), None)


def _trigger_ring(reg):
    bb = Blackbox(BlackboxPolicy(clock=lambda: 0.0), registry=reg)
    return (lambda i: bb.trigger("slo_breach", detail={"i": i}),
            lambda: (len(bb.trigger_history()), bb.stats().history_dropped),
            None)


_RINGS = {
    "trace": (_trace_ring, "trace_spans_dropped_total"),
    "decisions": (_decision_ring, None),
    "sink": (_sink_ring, "observe_events_dropped_total"),
    "flight": (_flight_ring, None),
    "triggers": (_trigger_ring, None),
}


class TestRingConcurrency:
    @pytest.mark.parametrize("kind", sorted(_RINGS))
    def test_drop_counts_exact(self, kind):
        """8 threads x 500 appends into 64 slots: every displaced row
        counts once, in the ring and on its drop counter.  Deterministic
        and sleep-free; the threads start together off a barrier with a
        1 us switch interval so their appends interleave."""
        make, metric = _RINGS[kind]
        reg = MetricsRegistry()
        append, read, snapshot = make(reg)
        n_workers = _THREADS + (snapshot is not None)
        barrier = threading.Barrier(n_workers, timeout=60)
        writers_done = threading.Event()
        sizes = []

        def write(t):
            barrier.wait()
            for j in range(_PER_THREAD):
                append(t * _PER_THREAD + j)

        def watch():
            barrier.wait()
            while not writers_done.is_set():
                sizes.append(len(snapshot()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                writers = [pool.submit(write, t) for t in range(_THREADS)]
                watcher = pool.submit(watch) if snapshot else None
                try:
                    for f in writers:
                        f.result(timeout=60)
                finally:
                    writers_done.set()
                if watcher is not None:
                    watcher.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        dropped = _THREADS * _PER_THREAD - _CAPACITY
        assert read() == (_CAPACITY, dropped)
        if metric is not None:
            assert f"{metric} {dropped}\n" in to_prometheus_text(reg)
        if snapshot is not None:
            assert sizes and max(sizes) <= _CAPACITY
