"""Tests for the tracing/profiling layer (repro.trace).

Runnable standalone via ``pytest -m trace``; CI runs this file with a
coverage floor on ``repro.trace`` (an unexercised exporter or quantile
branch is an exporter that lies).
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.observe import (
    MetricsRegistry,
    activate_trace,
    capture_trace,
    current_span,
    current_trace,
    span,
    to_json,
    to_prometheus_text,
    trace_event,
)
from repro.resilient.executor import ResiliencePolicy
from repro.serve import SpMVServer
from repro.shard.executor import ShardingPolicy
from repro.shard.scheduler import CoalescePolicy
from repro.trace import (
    KernelProfiler,
    SLOMonitor,
    SLOTarget,
    SlidingQuantiles,
    SpanRecord,
    TraceContext,
    TraceRecorder,
    TracingPolicy,
    capture_context,
    reset_ids,
)

pytestmark = pytest.mark.trace


def _matrix(seed=0, nrows=200, ncols=200):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 12, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, ncols, rng=rng)


def _record(name, trace, sid, parent=None, start=0.0, end=1e-3,
            tid=7, links=(), attrs=None):
    return SpanRecord(
        name=name, trace_id=trace, span_id=sid, parent_span_id=parent,
        start=start, end=end, thread_id=tid, thread_name="worker",
        attrs=attrs or {}, links=tuple(links),
    )


# ----------------------------------------------------------------------
class TestTraceContext:
    def test_ids_deterministic_after_reset(self):
        reset_ids()
        rec = TraceRecorder()
        a = TraceContext.root(rec)
        b = TraceContext.root(rec)
        assert (a.trace_id, b.trace_id) == ("t00000001", "t00000002")
        assert a.new_span_id() == "s00000001"

    def test_capture_outside_trace_is_none(self):
        assert capture_context() is None
        assert capture_trace() is None

    def test_capture_reparents_at_innermost_span(self):
        rec = TraceRecorder()
        ctx = TraceContext.root(rec)
        with activate_trace(ctx):
            with span("outer") as outer:
                snap = capture_context()
        assert snap.trace_id == ctx.trace_id
        assert snap.span_id == outer.span_id

    def test_root_links_become_context_links(self):
        rec = TraceRecorder()
        ctx = TraceContext.root(rec, links=[("t1", "s1"), ("t2", "s2")])
        assert ctx.links == (("t1", "s1"), ("t2", "s2"))


# ----------------------------------------------------------------------
class TestCrossThreadParenting:
    """Satellite 1: span parenting must survive thread hops."""

    def test_worker_spans_parent_to_submitting_stage(self):
        rec = TraceRecorder()
        ctx = TraceContext.root(rec)

        def work(snap):
            with activate_trace(snap):
                with span("worker.stage"):
                    pass

        with activate_trace(ctx):
            with span("request") as request:
                snap = capture_context()
                t = threading.Thread(target=work, args=(snap,))
                t.start()
                t.join()
        rows = {r.name: r for r in rec.records()}
        assert rows["worker.stage"].parent_span_id == request.span_id
        assert rows["worker.stage"].trace_id == ctx.trace_id
        assert rows["request"].parent_span_id is None

    def test_current_span_honours_activated_context(self):
        rec = TraceRecorder()
        ctx = TraceContext.root(rec)
        with activate_trace(ctx):
            with span("carried") as carried:
                snap = capture_context()
        seen = []

        def work():
            with activate_trace(snap):
                seen.append(current_span())
        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert seen[0] is carried

    def test_activation_swaps_in_fresh_stack(self):
        """A context activated mid-request re-roots, never nests."""
        rec = TraceRecorder()
        outer_ctx = TraceContext.root(rec)
        inner_ctx = TraceContext.root(rec)
        with activate_trace(outer_ctx):
            with span("outer"):
                with activate_trace(inner_ctx):
                    with span("inner"):
                        pass
                assert current_trace() is outer_ctx
        rows = {r.name: r for r in rec.records()}
        assert rows["inner"].trace_id == inner_ctx.trace_id
        assert rows["inner"].parent_span_id is None

    def test_trace_event_records_into_active_trace(self):
        rec = TraceRecorder()
        ctx = TraceContext.root(rec)
        with activate_trace(ctx):
            with span("host") as host:
                trace_event("leaf", 1.0, 2.0, attrs={"k": "v"})
        leaf = {r.name: r for r in rec.records()}["leaf"]
        assert leaf.parent_span_id == host.span_id
        assert leaf.attrs == {"k": "v"}
        assert leaf.seconds == pytest.approx(1.0)

    def test_trace_event_noop_without_trace(self):
        trace_event("leaf", 0.0, 1.0)  # must not raise, records nothing


# ----------------------------------------------------------------------
class TestRecorder:
    def test_ring_bound_and_dropped_counter(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            rec.record(_record("s", "t1", f"s{i}"))
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [r.span_id for r in rec.records()] == ["s6", "s7", "s8", "s9"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_records_filter_and_roots(self):
        rec = TraceRecorder()
        rec.record(_record("root", "t1", "s1"))
        rec.record(_record("child", "t1", "s2", parent="s1"))
        rec.record(_record("other", "t2", "s3"))
        assert [r.span_id for r in rec.records("t1")] == ["s1", "s2"]
        assert [r.span_id for r in rec.roots()] == ["s1", "s3"]
        assert rec.trace_ids() == ["t1", "t2"]

    def test_reachable_follows_links_both_directions(self):
        rec = TraceRecorder()
        rec.record(_record("member", "t1", "s1"))
        rec.record(_record("stage", "t1", "s2", parent="s1"))
        # dispatch in its own trace linking the member's stage
        rec.record(_record("dispatch", "t9", "s9", links=[("t1", "s2")]))
        rec.record(_record("kernel", "t9", "s10", parent="s9"))
        reached = rec.reachable_spans("s1")
        assert reached == {"s1", "s2", "s9", "s10"}
        # and backwards: from the dispatch, members are reachable
        assert rec.reachable_spans("s9") == {"s1", "s2", "s9", "s10"}

    def test_clear_keeps_dropped(self):
        rec = TraceRecorder(capacity=1)
        rec.record(_record("a", "t1", "s1"))
        rec.record(_record("b", "t1", "s2"))
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 1


# ----------------------------------------------------------------------
class TestChromeExport:
    def test_golden_chrome_trace(self):
        """Hand-built records export to an exact, stable document."""
        rec = TraceRecorder()
        rec.record(_record("serve.request", "t00000001", "s00000001",
                           start=10.0, end=10.002, tid=3))
        rec.record(_record("device.dispatch", "t00000001", "s00000002",
                           parent="s00000001", start=10.0005, end=10.0015,
                           tid=3, attrs={"kernel": "vector"}))
        rec.record(_record("scheduler.dispatch", "t00000002", "s00000003",
                           start=10.001, end=10.002, tid=4,
                           links=[("t00000001", "s00000001")]))
        expected = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": "serve.request", "cat": "t00000001", "ph": "X",
                 "ts": 0.0, "dur": 2000.0, "pid": 1, "tid": 3,
                 "args": {"trace_id": "t00000001",
                          "span_id": "s00000001"}},
                {"name": "device.dispatch", "cat": "t00000001", "ph": "X",
                 "ts": 500.0, "dur": 1000.0, "pid": 1, "tid": 3,
                 "args": {"trace_id": "t00000001",
                          "span_id": "s00000002",
                          "parent_span_id": "s00000001",
                          "kernel": "vector"}},
                {"name": "scheduler.dispatch", "cat": "t00000002",
                 "ph": "X", "ts": 1000.0, "dur": 1000.0, "pid": 1,
                 "tid": 4,
                 "args": {"trace_id": "t00000002",
                          "span_id": "s00000003",
                          "links": [{"trace_id": "t00000001",
                                     "span_id": "s00000001"}]}},
            ],
        }
        assert rec.chrome_trace() == expected
        assert json.loads(rec.chrome_trace_json(indent=2)) == expected

    def test_empty_recorder_exports_empty_document(self):
        doc = TraceRecorder().chrome_trace()
        assert doc["traceEvents"] == []

    def test_timeline_indents_and_links(self):
        rec = TraceRecorder()
        rec.record(_record("request", "t1", "s1", start=0.0, end=3e-3))
        rec.record(_record("stage", "t1", "s2", parent="s1",
                           start=1e-3, end=2e-3))
        rec.record(_record("dispatch", "t2", "s3", start=1e-3, end=2e-3,
                           links=[("t1", "s2")]))
        text = rec.timeline("t1")
        lines = text.splitlines()
        assert "trace t1" in lines[0]
        assert lines[1].startswith("  request")
        assert lines[2].startswith("    stage")
        assert "1 linked trace" in rec.timeline("t2")


# ----------------------------------------------------------------------
class TestSlidingQuantiles:
    def test_matches_numpy_percentile(self):
        rng = np.random.default_rng(42)
        data = rng.exponential(0.01, size=400)
        sq = SlidingQuantiles(window=1000)
        for v in data:
            sq.observe(float(v))
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert sq.quantile(q) == pytest.approx(
                float(np.percentile(data, q * 100)), abs=1e-12,
            )

    def test_window_keeps_only_recent(self):
        sq = SlidingQuantiles(window=4)
        for v in (100.0, 100.0, 1.0, 2.0, 3.0, 4.0):
            sq.observe(v)
        assert len(sq) == 4
        assert sq.quantile(1.0) == 4.0  # the 100s slid out

    def test_quantiles_snapshot_consistent(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=128)
        sq = SlidingQuantiles(window=128)
        for v in data:
            sq.observe(float(v))
        qs = sq.quantiles((0.5, 0.95))
        assert qs[0.5] == sq.quantile(0.5)
        assert qs[0.95] == sq.quantile(0.95)

    def test_empty_is_nan_and_bad_q_raises(self):
        sq = SlidingQuantiles()
        assert np.isnan(sq.quantile(0.5))
        sq.observe(1.0)
        with pytest.raises(ValueError):
            sq.quantile(1.5)
        with pytest.raises(ValueError):
            SlidingQuantiles(window=0)


# ----------------------------------------------------------------------
class TestSLOMonitor:
    def test_counts_breaches_per_objective(self):
        mon = SLOMonitor(SLOTarget(p50=0.01, p99=0.05),
                         registry=MetricsRegistry())
        mon.observe(0.001)
        mon.observe(0.02)   # > p50 bound only
        mon.observe(0.2)    # > both bounds
        assert mon.breaches == {"p50": 2, "p99": 1}

    def test_health_snapshot_flags_breaching_quantiles(self):
        mon = SLOMonitor(SLOTarget(p99=0.01), window=8,
                         registry=MetricsRegistry(), refresh_every=1)
        for _ in range(8):
            mon.observe(0.1)
        health = mon.health_snapshot()
        assert health["status"] == "breached"
        assert "p99" in health["breaching"]
        assert health["observed"] == 8

    def test_gauges_land_in_registry(self):
        reg = MetricsRegistry()
        mon = SLOMonitor(SLOTarget(p99=1.0), registry=reg, refresh_every=1)
        for v in (0.01, 0.02, 0.03):
            mon.observe(v)
        text = to_prometheus_text(reg)
        assert 'serve_latency_quantile_seconds{quantile="p99"}' in text
        assert 'slo_breaches_total{objective="p99"} 0' in text

    def test_target_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(p99=-1.0)
        with pytest.raises(ValueError):
            TracingPolicy(recorder_capacity=0)

    def test_unbounded_target_never_breaches(self):
        mon = SLOMonitor(SLOTarget(), registry=MetricsRegistry())
        mon.observe(1e9)
        assert mon.breaches == {}
        assert mon.health_snapshot()["status"] == "ok"

    def test_quantile_and_describe(self):
        mon = SLOMonitor(SLOTarget(p99=1.0), registry=MetricsRegistry(),
                         refresh_every=1)
        for v in (0.1, 0.2, 0.3):
            mon.observe(v)
        assert mon.quantile(0.5) == pytest.approx(0.2)
        text = mon.describe()
        assert "p99" in text and "ok" in text


# ----------------------------------------------------------------------
class TestKernelProfiler:
    def test_profile_is_deterministic(self):
        m = _matrix(3)
        prof = KernelProfiler()
        a = prof.sweep(m, granularities=(10, 100), kernel_names=("serial", "vector"))
        b = prof.sweep(m, granularities=(10, 100), kernel_names=("serial", "vector"))
        assert a.as_dict() == b.as_dict()

    def test_dispatch_profile_invariants(self):
        m = _matrix(5)
        prof = KernelProfiler()
        report = prof.sweep(m, granularities=(50,),
                            kernel_names=("serial", "subvector8", "vector"))
        assert len(report) > 0
        total_rows = 0
        for row in report.rows:
            assert 0.0 <= row.lane_occupancy <= 1.0
            assert 0.0 <= row.wave_residency <= 1.0
            assert 0.0 <= row.memory_fraction <= 1.0
            assert 0.0 <= row.roofline_efficiency <= 1.0
            assert row.total_seconds > 0.0
            assert row.dominant in ("compute", "bandwidth", "latency")
            total_rows += row.n_rows
        # the sweep costs every kernel on every bin: rows covered =
        # 3 kernels x matrix rows
        assert total_rows == 3 * m.nrows

    def test_profile_plan_covers_matrix_once(self):
        from repro.serve.server import heuristic_planner

        m = _matrix(1)
        plan = heuristic_planner(m)
        report = KernelProfiler().profile_plan(m, plan)
        assert sum(r.n_rows for r in report.rows) == m.nrows
        assert sum(r.nnz for r in report.rows) == m.nnz
        assert report.total_seconds() > 0.0
        assert "kernel profile" in report.describe()

    def test_profile_plan_reads_row_lengths_once(self, monkeypatch):
        """A u50 plan's launches share one row-length pass."""
        from repro.binning import CoarseBinning
        from repro.core.plan import ExecutionPlan
        from repro.matrices import generators as gen
        from repro.trace import profiler as profiler_mod

        m = gen.power_law_graph(3_000, seed=1)
        binning = CoarseBinning(50).bin_rows(m)
        kernels = ("serial", "subvector8", "vector")
        plan = ExecutionPlan(
            scheme=CoarseBinning(50), binning=binning,
            bin_kernels={b: kernels[i % 3] for i, (b, _) in
                         enumerate(binning.non_empty())})
        assert binning.n_nonempty > 3
        # The locality pass reads row lengths of its own; pin it, so
        # what is counted is the pricing of every bin.
        monkeypatch.setattr(profiler_mod, "effective_gather_locality",
                            lambda matrix, spec: 0.5)
        calls = []
        row_lengths = CSRMatrix.row_lengths
        monkeypatch.setattr(CSRMatrix, "row_lengths",
                            lambda self: calls.append(1) or row_lengths(self))
        report = KernelProfiler().profile_plan(m, plan)
        assert len(calls) == 1
        assert [r.bin_id for r in report.rows] == [
            b for b, _ in binning.non_empty()]

    def test_by_kernel_partitions_rows(self):
        m = _matrix(2)
        report = KernelProfiler().sweep(
            m, granularities=(20,), kernel_names=("serial", "vector"))
        by = report.by_kernel()
        assert set(by) == {"serial", "vector"}
        assert sum(len(v) for v in by.values()) == len(report)


# ----------------------------------------------------------------------
class TestServerTracing:
    def _connected(self, rec, trace_id):
        spans = rec.records(trace_id)
        roots = [r for r in spans if r.parent_span_id is None]
        assert len(roots) == 1
        reached = rec.reachable_spans(roots[0].span_id)
        assert {r.span_id for r in spans} <= reached
        return reached

    def test_single_request_one_connected_trace(self):
        m = _matrix(0)
        with SpMVServer(registry=MetricsRegistry(),
                        tracing=TracingPolicy()) as server:
            res = server.submit(m, np.ones(m.ncols))
            assert res.trace_id is not None
            reached = self._connected(server.trace_recorder, res.trace_id)
            records = server.trace_recorder.records(res.trace_id)
            names = {r.name for r in records}
            assert "serve.request" in names
            assert "device.dispatch" in names
            # One compute pass per request, beside the launches' spans.
            assert [r.name for r in records].count("device.compute") == 1
            assert len(reached) == len(server.trace_recorder.records(res.trace_id))

    def test_sharded_request_stays_connected(self):
        m = _matrix(0, nrows=400, ncols=400)
        with SpMVServer(registry=MetricsRegistry(),
                        sharding=ShardingPolicy(n_shards=4),
                        tracing=TracingPolicy()) as server:
            res = server.submit(m, np.ones(m.ncols))
            self._connected(server.trace_recorder, res.trace_id)
            names = {r.name
                     for r in server.trace_recorder.records(res.trace_id)}
            assert "shard.worker" in names

    def test_resilient_attempt_span_recorded(self):
        m = _matrix(0)
        with SpMVServer(registry=MetricsRegistry(),
                        resilience=ResiliencePolicy(),
                        tracing=TracingPolicy()) as server:
            res = server.submit(m, np.ones(m.ncols))
            names = {r.name
                     for r in server.trace_recorder.records(res.trace_id)}
            assert "resilient.attempt" in names

    def test_coalesced_fanin_under_n_threads(self):
        """Every member's trace must reach the shared dispatch span."""
        m = _matrix(0)
        n = 6
        with SpMVServer(
            registry=MetricsRegistry(),
            scheduler=CoalescePolicy(max_batch=n, max_wait_seconds=0.25),
            tracing=TracingPolicy(),
        ) as server:
            with ThreadPoolExecutor(max_workers=n) as pool:
                results = list(pool.map(
                    lambda _: server.submit(m, np.ones(m.ncols)), range(n)))
            rec = server.trace_recorder
            by_id = {r.span_id: r for r in rec.records()}
            dispatch = [r for r in rec.records()
                        if r.name == "scheduler.dispatch"]
            assert dispatch, "no coalesced dispatch was traced"
            member_ids = {res.trace_id for res in results}
            assert len(member_ids) == n  # one trace per request
            linked = {t for d in dispatch for t, _ in d.links}
            assert linked == member_ids  # fan-in references every member
            for res in results:
                root = [r for r in rec.records(res.trace_id)
                        if r.parent_span_id is None][0]
                names = {by_id[sid].name
                         for sid in rec.reachable_spans(root.span_id)}
                assert "scheduler.dispatch" in names
                assert res.dispatch_trace_id in {d.trace_id
                                                 for d in dispatch}

    def test_untraced_server_has_no_trace_surface(self):
        m = _matrix(0)
        reg = MetricsRegistry()
        with SpMVServer(registry=reg) as server:
            res = server.submit(m, np.ones(m.ncols))
            assert res.trace_id is None
            assert server.trace_recorder is None
            assert server.slo is None
            from repro.errors import DeviceError
            with pytest.raises(DeviceError):
                server.health_snapshot()
        text = to_prometheus_text(reg)
        assert "serve_latency_quantile_seconds" not in text
        assert "slo_breaches_total" not in text

    def test_tracing_results_numerically_identical(self):
        m = _matrix(0)
        x = np.ones(m.ncols)
        with SpMVServer(registry=MetricsRegistry()) as plain:
            y0 = plain.submit(m, x).y
        with SpMVServer(registry=MetricsRegistry(),
                        tracing=TracingPolicy()) as traced:
            y1 = traced.submit(m, x).y
        np.testing.assert_array_equal(y0, y1)

    def test_slo_gauges_reach_both_exporters(self):
        m = _matrix(0)
        reg = MetricsRegistry()
        with SpMVServer(
            registry=reg,
            tracing=TracingPolicy(slo=SLOTarget(p99=10.0), refresh_every=1),
        ) as server:
            for _ in range(3):
                server.submit(m, np.ones(m.ncols))
            health = server.health_snapshot()
        assert health["status"] == "ok"
        text = to_prometheus_text(reg)
        snap = json.dumps(to_json(reg))
        for surface in (text, snap):
            assert "serve_latency_quantile_seconds" in surface
            assert "slo_breaches_total" in surface

    def test_batch_requests_are_traced(self):
        m = _matrix(0)
        with SpMVServer(registry=MetricsRegistry(),
                        tracing=TracingPolicy()) as server:
            res = server.submit_batch(m, np.ones((m.ncols, 4)))
            assert res.trace_id is not None
            rows = server.trace_recorder.records(res.trace_id)
            root = [r for r in rows if r.parent_span_id is None][0]
            assert root.attrs.get("kind") == "batch"
