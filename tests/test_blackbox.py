"""Incident-observability suite: flight recorder, exemplars, bundles.

Everything trigger/rate-limit-shaped runs on injected clocks -- zero
sleeps, zero wall-clock assertions:

- flight-recorder ring bounds (seq survives eviction, truthful dropped
  counts, concurrent-append integrity);
- exemplar round trip: ``Histogram.observe(..., exemplar=)`` ->
  OpenMetrics ``# {trace_id="..."}`` suffix in the Prometheus text ->
  resolved against the bundled Chrome trace export;
- Prometheus label-value escaping (backslash/quote/newline), pinned by
  a golden with hostile tenant names;
- drop-accounting metrics on the event sink and trace recorder rings;
- trigger semantics under a fake clock: bundle / rate-limited /
  filtered / record-only, concurrent-trigger exactly-one-bundle, and
  the deferred SLO-breach flush that puts the offending request into
  its own bundle's flight tail;
- bundle contents: ``flight.jsonl``, ``decisions.jsonl`` and the
  manifest's ring counts equal what the recorders report;
- bundle lifecycle: manifest-last partial detection, corrupt files ->
  readable :class:`~repro.blackbox.BundleError` (never a traceback),
  oldest-first pruning;
- the ``repro doctor`` CLI and the chaos serve-demo acceptance round
  trip (auto-written bundle whose exemplars resolve, report renders).
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from repro.blackbox import (
    Blackbox,
    BlackboxPolicy,
    BundleError,
    FlightRecorder,
    TRIGGER_REASONS,
    find_bundles,
    load_bundle,
    render_report,
    write_bundle,
)
from repro.cli import main
from repro.formats import CSRMatrix
from repro.learn import LearningPolicy
from repro.observe import (
    MetricsRegistry,
    RecordingSink,
    to_prometheus_text,
)
from repro.serve import SpMVServer
from repro.trace import SLOTarget, TracingPolicy
from repro.trace.recorder import TraceRecorder
from repro.trace.slo import SLOMonitor

pytestmark = pytest.mark.blackbox


class FakeClock:
    """Deterministic, manually-advanced stand-in for time.monotonic."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _matrix(nrows=64, seed=0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 6, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, nrows, rng=rng)


def _flight_fields(**overrides):
    """A complete RequestRecord field set (minus seq) for direct feeds."""
    fields = dict(
        kind="single", tenant="default", priority="latency",
        digest="d" * 16, plan_source="heuristic", kernels="vector",
        scheme="ROWS_1", cache_hit=True, shards=0, backend=None,
        coalesced_width=1, attempts=1, degraded=False, explored=False,
        arm=None, wall_seconds=1e-3, simulated_seconds=5e-4,
        trace_id=None,
    )
    fields.update(overrides)
    return fields


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_seq(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(**_flight_fields(wall_seconds=float(i)))
        stats = rec.stats()
        assert stats.size == 4 and stats.capacity == 4
        assert stats.recorded == 10 and stats.dropped == 6
        assert rec.dropped == 6
        # Sequence numbers survive eviction and stay monotone.
        assert [r.seq for r in rec.records()] == [7, 8, 9, 10]
        assert [r.wall_seconds for r in rec.tail(2)] == [8.0, 9.0]
        assert rec.tail(0) == []

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_concurrent_appends(self):
        rec = FlightRecorder(capacity=128)
        n_threads, per_thread = 8, 50

        def hammer():
            for _ in range(per_thread):
                rec.record(**_flight_fields())

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = rec.stats()
        assert stats.recorded == n_threads * per_thread
        assert stats.size == 128
        # No duplicated or skipped sequence numbers among the retained.
        seqs = [r.seq for r in rec.records()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_as_dict_round_trips_json(self):
        rec = FlightRecorder()
        record = rec.record(**_flight_fields(arm="u8:vector"))
        d = json.loads(json.dumps(record.as_dict()))
        assert d["seq"] == 1 and d["arm"] == "u8:vector"


# ----------------------------------------------------------------------
# Exemplars + escaping in the observe layer
# ----------------------------------------------------------------------
class TestExemplars:
    def test_histogram_carries_latest_exemplar_per_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)                      # no exemplar: stays plain
        assert h.exemplars() == {}
        h.observe(0.05, exemplar="t01")
        h.observe(0.06, exemplar="t02")      # same bucket: newest wins
        h.observe(0.5, exemplar="t03")
        ex = h.exemplars()
        assert ex[0] == ("t02", 0.06)
        assert ex[1] == ("t03", 0.5)

    def test_prometheus_text_renders_openmetrics_suffix(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1,))
        h.observe(0.05, exemplar="t0a")
        text = to_prometheus_text(reg)
        assert '# {trace_id="t0a"} 0.05' in text
        # The exemplar annotates only its bucket line, never +Inf-less
        # lines it does not belong to.
        for line in text.splitlines():
            if "trace_id" in line:
                assert 'le="0.1"' in line

    def test_plain_histograms_export_unchanged(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        for reg in (reg_a, reg_b):
            h = reg.histogram("lat_seconds", buckets=(0.1,))
            h.observe(0.05)
        # Exemplar-free output is byte-identical whether or not the
        # exemplar code path exists (golden-export compatibility).
        assert to_prometheus_text(reg_a) == to_prometheus_text(reg_b)
        assert "trace_id" not in to_prometheus_text(reg_a)


HOSTILE_ESCAPING_GOLDEN = (
    '# TYPE serve_requests_total counter\n'
    'serve_requests_total{tenant="back\\\\slash"} 1\n'
    'serve_requests_total{tenant="multi\\nline"} 1\n'
    'serve_requests_total{tenant="say \\"hi\\""} 1\n'
)


class TestLabelEscaping:
    def test_hostile_label_values_golden(self):
        reg = MetricsRegistry()
        for tenant in ('say "hi"', "back\\slash", "multi\nline"):
            reg.counter("serve_requests_total", {"tenant": tenant}).inc()
        assert to_prometheus_text(reg) == HOSTILE_ESCAPING_GOLDEN

    def test_backslash_escaped_before_quote(self):
        # A value ending in a backslash must not swallow the closing
        # quote: \ -> \\ happens first, so the output stays parseable.
        reg = MetricsRegistry()
        reg.counter("c_total", {"k": 'trailing\\'}).inc()
        assert 'k="trailing\\\\"' in to_prometheus_text(reg)

    def test_exemplar_trace_id_is_escaped(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0,))
        h.observe(0.5, exemplar='weird"id\\')
        assert '# {trace_id="weird\\"id\\\\"}' in to_prometheus_text(reg)


# ----------------------------------------------------------------------
# Drop accounting
# ----------------------------------------------------------------------
class TestDropAccounting:
    def test_event_sink_drop_counter(self):
        reg = MetricsRegistry()
        sink = RecordingSink(max_events=2, registry=reg)
        reg.add_event_sink(sink)
        for i in range(5):
            reg.emit("cache_evicted", digest=str(i))
        assert sink.dropped == 3
        assert "observe_events_dropped_total 3" in to_prometheus_text(reg)

    def test_trace_recorder_drop_counter(self):
        from repro.trace.recorder import SpanRecord

        reg = MetricsRegistry()
        rec = TraceRecorder(capacity=2, registry=reg)
        for i in range(5):
            rec.record(SpanRecord(
                name="s", trace_id=f"t{i}", span_id=f"s{i}",
                parent_span_id=None, start=0.0, end=1.0,
                thread_id=1, thread_name="main",
            ))
        assert rec.dropped == 3
        assert "trace_spans_dropped_total 3" in to_prometheus_text(reg)


# ----------------------------------------------------------------------
# SLO breach callback
# ----------------------------------------------------------------------
class TestBreachCallback:
    def test_on_breach_fires_per_breached_objective(self):
        calls = []
        monitor = SLOMonitor(
            SLOTarget(p50=0.01, p99=0.02),
            registry=MetricsRegistry(),
            on_breach=lambda name, s, b: calls.append((name, s, b)),
        )
        monitor.observe(0.005)
        assert calls == []
        monitor.observe(0.015)               # breaches p50 only
        assert calls == [("p50", 0.015, 0.01)]
        monitor.observe(0.05)                # breaches both
        assert ("p99", 0.05, 0.02) in calls and len(calls) == 3

    def test_default_monitor_has_no_callback(self):
        monitor = SLOMonitor(
            SLOTarget(p99=0.001), registry=MetricsRegistry()
        )
        monitor.observe(1.0)                 # must not raise


# ----------------------------------------------------------------------
# Trigger semantics (fake clock)
# ----------------------------------------------------------------------
class TestTriggers:
    def _blackbox(self, tmp_path, clock, **policy):
        policy.setdefault("bundle_dir", str(tmp_path))
        policy.setdefault("min_bundle_interval_seconds", 30.0)
        return Blackbox(
            BlackboxPolicy(clock=clock, **policy),
            registry=MetricsRegistry(),
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BlackboxPolicy(flight_capacity=0)
        with pytest.raises(ValueError):
            BlackboxPolicy(min_bundle_interval_seconds=-1)
        with pytest.raises(ValueError):
            BlackboxPolicy(trigger_on=("slo_breach", "nope"))

    def test_rate_limit_then_window_reopens(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(tmp_path, clock)
        first = bb.trigger("slo_breach", detail={"objective": "p99"})
        assert first is not None and first.name == "bundle-0001-slo_breach"
        clock.advance(10.0)
        assert bb.trigger("slo_breach") is None       # inside the window
        clock.advance(30.0)
        second = bb.trigger("breaker_open")
        assert second is not None and second.name.endswith("breaker_open")
        stats = bb.stats()
        assert stats.bundles_written == 2
        assert stats.bundles_suppressed == 1
        assert stats.triggers == {"slo_breach": 2, "breaker_open": 1}
        # The suppressed trigger survives in the second bundle's
        # manifest history (what fired during the quiet window).
        manifest = load_bundle(second).manifest
        actions = [h["action"] for h in manifest["trigger_history"]]
        assert actions == ["bundle", "suppressed", "bundle"]

    def test_trigger_filter_and_record_only_mode(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(tmp_path, clock, trigger_on=("breaker_open",))
        assert bb.trigger("slo_breach") is None       # filtered out
        assert bb.stats().triggers == {}
        recorder = Blackbox(                          # no bundle_dir
            BlackboxPolicy(clock=clock), registry=MetricsRegistry()
        )
        assert recorder.trigger("slo_breach") is None
        assert recorder.stats().triggers == {"slo_breach": 1}
        assert recorder.trigger_history()[0]["action"] == "recorded"
        assert list(tmp_path.iterdir()) == []         # nothing written

    def test_trigger_history_counts_what_it_displaces(self, tmp_path):
        clock = FakeClock()
        recorder = Blackbox(                          # no bundle_dir
            BlackboxPolicy(clock=clock), registry=MetricsRegistry()
        )
        assert "displaced from history" not in recorder.stats().describe()
        for i in range(70):
            clock.advance(1.0)
            recorder.trigger("slo_breach", detail={"i": i})
        history = recorder.trigger_history()
        stats = recorder.stats()
        assert len(history) == 64 and stats.history_dropped == 6
        assert history[0]["detail"] == {"i": 6}
        assert "6 oldest displaced from history" in stats.describe()
        bundled = self._blackbox(tmp_path, clock)
        for _ in range(65):
            clock.advance(1.0)
            bundled.trigger("slo_breach")
        clock.advance(60.0)
        path = bundled.trigger("breaker_open")
        bundle = load_bundle(path)
        assert len(bundle.manifest["trigger_history"]) == 64
        assert bundle.manifest["trigger_history_dropped"] == 2
        assert "(64 entries, 2 older displaced)" in render_report(bundle)

    def test_concurrent_trigger_storm_writes_exactly_one(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(tmp_path, clock)
        with ThreadPoolExecutor(max_workers=16) as pool:
            paths = list(pool.map(
                lambda _: bb.trigger("slo_breach"), range(16)
            ))
        written = [p for p in paths if p is not None]
        assert len(written) == 1
        assert find_bundles(tmp_path) == written
        stats = bb.stats()
        assert stats.bundles_written == 1
        assert stats.bundles_suppressed == 15

    def test_shed_spike_threshold_and_window(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(
            tmp_path, clock,
            shed_spike_threshold=3, shed_spike_window_seconds=1.0,
        )
        bb.note_shed("acme", "rate")
        clock.advance(2.0)                   # first shed ages out
        bb.note_shed("acme", "rate")
        bb.note_shed("acme", "queue")
        assert bb.stats().triggers == {}
        bb.note_shed("firehose", "rate")     # third inside the window
        assert bb.stats().triggers == {"shed_spike": 1}
        detail = bb.trigger_history()[-1]["detail"]
        assert detail["sheds_in_window"] == 3
        assert detail["last_tenant"] == "firehose"
        # The window cleared on the spike: one storm, one trigger.
        bb.note_shed("acme", "rate")
        assert bb.stats().triggers == {"shed_spike": 1}

    def test_slo_breach_defers_until_request_recorded(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(tmp_path, clock)
        bb.on_slo_breach("p99", 0.5, 0.1)
        assert bb.stats().triggers == {}     # parked, not fired
        bb.flight.record(**_flight_fields())
        result = type("R", (), {
            "plan": None, "tenant": "acme", "priority": "latency",
            "fingerprint": type("F", (), {"digest": "a" * 16})(),
            "cache_hit": False, "shards": None, "coalesced_width": 1,
            "attempts": 1, "degraded": False, "explored": False,
            "arm": None, "seconds": 1e-4, "trace_id": "t01",
        })()
        bb.record_request(result, kind="single", wall=2e-3)
        assert bb.stats().triggers == {"slo_breach": 1}
        bundle = load_bundle(find_bundles(tmp_path)[0])
        # The flight tail includes the request that breached.
        assert bundle.flight[-1]["tenant"] == "acme"
        assert bundle.manifest["detail"]["objective"] == "p99"

    def test_close_flushes_parked_breach(self, tmp_path):
        clock = FakeClock()
        bb = self._blackbox(tmp_path, clock)
        bb.on_slo_breach("p99", 0.5, 0.1)
        bb.close()
        assert bb.stats().triggers == {"slo_breach": 1}
        assert len(find_bundles(tmp_path)) == 1

    def test_bundle_write_failure_never_raises(self, tmp_path):
        clock = FakeClock()
        target = tmp_path / "blocked"
        target.write_text("a file where the bundle dir should go")
        bb = Blackbox(
            BlackboxPolicy(clock=clock, bundle_dir=str(target)),
            registry=MetricsRegistry(),
        )
        assert bb.trigger("slo_breach") is None       # swallowed
        stats = bb.stats()
        assert stats.bundle_errors == 1 and stats.bundles_written == 0
        assert bb.trigger_history()[-1]["action"] == "error"


# ----------------------------------------------------------------------
# Bundle contents vs the recorders they snapshot
# ----------------------------------------------------------------------
def _json_default(obj):
    """The bundle writer's fallback: numbers as floats, else strings."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


def _render_jsonl(rows, **dumps_kwargs):
    """One ``json.dumps(row.as_dict())`` line per row, oldest first."""
    return "".join(
        json.dumps(r.as_dict(), **dumps_kwargs) + "\n" for r in rows
    )


class TestBundleRendering:
    def test_bundle_files_equal_recorder_snapshots(self, tmp_path):
        clock = FakeClock()
        policy = BlackboxPolicy(
            bundle_dir=str(tmp_path), clock=clock, flight_capacity=16,
            flight_tail=5, decision_tail=3,
        )
        server = SpMVServer(
            registry=MetricsRegistry(), blackbox=policy,
            learning=LearningPolicy(epsilon=0.5, log_capacity=8),
        )
        try:
            for i in range(20):
                m = _matrix(seed=i % 3)
                server.submit(m, np.ones(m.ncols))
            bb, log = server.blackbox, server.selector.log
            for i in range(70):        # one bundle, then 69 rate-limited
                bb.trigger("shed_spike", detail={"i": i})
            clock.advance(60.0)
            path = bb.trigger("breaker_open")
            assert path is not None

            flight = bb.flight.stats()
            assert (flight.recorded, flight.dropped, flight.size) == (
                20, 4, 16)
            assert log.stats().dropped == 12
            assert (path / "flight.jsonl").read_text() == _render_jsonl(
                bb.flight.tail(5), default=_json_default)
            assert (path / "decisions.jsonl").read_text() == _render_jsonl(
                log.tail(3), default=_json_default)
            manifest = json.loads((path / "manifest.json").read_text())
            history = bb.trigger_history()
            assert len(history) == 64
            assert manifest["flight"] == asdict(flight)
            assert manifest["trigger_history"] == history
            assert manifest["trigger_history_dropped"] == 7
            assert bb.stats().history_dropped == 7
            assert log.to_jsonl() == _render_jsonl(log.records())
        finally:
            server.close()


# ----------------------------------------------------------------------
# Bundle lifecycle
# ----------------------------------------------------------------------
def _write_minimal_bundle(root, name="bundle-0001-slo_breach", **extra):
    files = {
        "manifest.json": json.dumps({
            "schema": 1, "seq": 1, "reason": "slo_breach",
            "detail": {}, "triggered_at": 0.0, "trigger_history": [],
            "config": {}, "flight": {}, "files": ["manifest.json"],
        }),
    }
    files.update(extra)
    return write_bundle(root, name, files)


class TestBundleLifecycle:
    def test_manifest_required_at_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_bundle(tmp_path, "b", {"metrics.json": "{}"})

    def test_partial_bundle_readable_error(self, tmp_path):
        partial = tmp_path / "bundle-0001-slo_breach"
        partial.mkdir()
        (partial / "metrics.json").write_text("{}")
        with pytest.raises(BundleError, match="partial bundle"):
            load_bundle(partial)
        # find_bundles skips it unless asked not to.
        assert find_bundles(tmp_path) == []
        assert find_bundles(tmp_path, complete_only=False) == [partial]

    def test_missing_directory_readable_error(self, tmp_path):
        with pytest.raises(BundleError, match="no such bundle"):
            load_bundle(tmp_path / "nope")

    def test_corrupt_manifest_names_the_file(self, tmp_path):
        bundle = _write_minimal_bundle(tmp_path)
        (bundle / "manifest.json").write_text("{not json")
        with pytest.raises(BundleError, match="manifest.json"):
            load_bundle(bundle)

    def test_corrupt_jsonl_names_file_and_line(self, tmp_path):
        bundle = _write_minimal_bundle(
            tmp_path, **{"flight.jsonl": '{"seq": 1}\n{broken\n'}
        )
        with pytest.raises(BundleError, match=r"flight.jsonl line 2"):
            load_bundle(bundle)

    def test_schema_mismatch_rejected(self, tmp_path):
        bundle = tmp_path / "bundle-0001-slo_breach"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(json.dumps({"schema": 99}))
        with pytest.raises(BundleError, match="schema 99"):
            load_bundle(bundle)

    def test_optional_files_default_cleanly(self, tmp_path):
        bundle = load_bundle(_write_minimal_bundle(tmp_path))
        assert bundle.metrics is None and bundle.trace is None
        assert bundle.flight == [] and bundle.decisions == []
        assert bundle.exemplar_trace_ids() == []
        assert bundle.span_trace_ids() == set()
        # The doctor renders even a minimal bundle.
        assert "incident report" in render_report(bundle)

    def test_pruning_keeps_newest(self, tmp_path):
        for i in range(1, 5):
            write_bundle(
                tmp_path, f"bundle-{i:04d}-slo_breach",
                {"manifest.json": json.dumps({"schema": 1})},
                max_bundles=2,
            )
        names = [p.name for p in find_bundles(tmp_path)]
        assert names == ["bundle-0003-slo_breach", "bundle-0004-slo_breach"]


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
class TestServerIntegration:
    def test_blackbox_none_leaves_no_recorder_state(self):
        server = SpMVServer()
        assert server.blackbox is None
        assert server.stats().blackbox is None
        server.close()

    def test_requests_land_in_flight_ring(self):
        server = SpMVServer(blackbox=BlackboxPolicy())
        m = _matrix()
        x = np.ones(m.ncols)
        server.submit(m, x)
        server.submit(m, x)
        server.submit_batch(m, np.ones((m.ncols, 3)))
        records = server.blackbox.flight.records()
        assert [r.kind for r in records] == ["single", "single", "batch"]
        assert records[0].cache_hit is False
        assert records[1].cache_hit is True
        assert records[0].digest == records[1].digest
        assert records[0].kernels != "" and records[0].scheme is not None
        assert all(r.shards == 0 and r.trace_id is None for r in records)
        assert all(r.wall_seconds > 0 for r in records)
        stats = server.stats().blackbox
        assert stats is not None and stats.flight.recorded == 3
        assert "flight recorder" in stats.describe()
        server.close()

    def test_traced_server_stamps_trace_ids_and_exemplars(self):
        reg = MetricsRegistry()
        server = SpMVServer(
            registry=reg, tracing=TracingPolicy(), blackbox=BlackboxPolicy()
        )
        m = _matrix()
        res = server.submit(m, np.ones(m.ncols))
        record = server.blackbox.flight.records()[0]
        assert record.trace_id == res.trace_id is not None
        text = to_prometheus_text(reg)
        assert f'trace_id="{res.trace_id}"' in text
        assert "serve_request_seconds" in text
        server.close()

    def test_untraced_server_has_no_request_histogram(self):
        reg = MetricsRegistry()
        server = SpMVServer(registry=reg, blackbox=BlackboxPolicy())
        m = _matrix()
        server.submit(m, np.ones(m.ncols))
        # Golden-export compatibility: no new family without tracing.
        assert "serve_request_seconds" not in to_prometheus_text(reg)
        server.close()

    def test_breach_bundle_round_trip_through_server(self, tmp_path):
        server = SpMVServer(
            registry=MetricsRegistry(),
            tracing=TracingPolicy(slo=SLOTarget(p99=1e-9)),
            blackbox=BlackboxPolicy(
                bundle_dir=str(tmp_path), min_bundle_interval_seconds=0.0,
            ),
        )
        m = _matrix()
        for _ in range(3):
            server.submit(m, np.ones(m.ncols))
        server.close()
        bundles = find_bundles(tmp_path)
        assert bundles
        bundle = load_bundle(bundles[-1])
        assert bundle.manifest["reason"] == "slo_breach"
        assert bundle.flight                      # offender on board
        exemplars = bundle.exemplar_trace_ids()
        spans = bundle.span_trace_ids()
        assert exemplars and all(t in spans for t in exemplars)
        report = render_report(bundle)
        assert "slo_breach" in report and "top offenders" in report

    def test_sharded_requests_record_backend(self):
        from repro.shard import ShardingPolicy

        server = SpMVServer(
            sharding=ShardingPolicy(n_shards=2, backend="inline"),
            blackbox=BlackboxPolicy(),
        )
        m = _matrix(128)
        server.submit(m, np.ones(m.ncols))
        record = server.blackbox.flight.records()[0]
        assert record.shards == 2 and record.backend == "inline"
        server.close()


# ----------------------------------------------------------------------
# Doctor CLI + chaos acceptance
# ----------------------------------------------------------------------
class TestDoctorCLI:
    def test_chaos_demo_writes_bundle_and_doctor_reads_it(
        self, tmp_path, capsys
    ):
        bundle_dir = tmp_path / "bundles"
        code = main([
            "serve-demo", "--chaos", "--requests", "12", "--batches", "1",
            "--size", "600", "--matrices", "2",
            "--bundle-dir", str(bundle_dir), "--slo-p99", "0.0001",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blackbox:" in out and "bundle(s) written" in out
        bundles = find_bundles(bundle_dir)
        assert len(bundles) >= 1
        # Acceptance: the auto-written bundle's exemplars resolve to
        # spans in its own trace export.
        bundle = load_bundle(bundles[-1])
        exemplars = bundle.exemplar_trace_ids()
        assert exemplars
        assert set(exemplars) <= bundle.span_trace_ids()
        # And the doctor renders a report over the directory.
        assert main(["doctor", str(bundle_dir)]) == 0
        report = capsys.readouterr().out
        assert "incident report" in report
        assert "exemplar trace ids resolve" in report

    def test_doctor_on_direct_bundle_path(self, tmp_path, capsys):
        bundle = _write_minimal_bundle(tmp_path)
        assert main(["doctor", str(bundle)]) == 0
        assert "incident report" in capsys.readouterr().out

    def test_doctor_missing_path_exits_1(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nope")]) == 1
        assert "doctor:" in capsys.readouterr().err

    def test_doctor_empty_dir_exits_1(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 1
        assert "no complete debug bundles" in capsys.readouterr().err

    def test_doctor_corrupt_bundle_readable_error(self, tmp_path, capsys):
        bundle = _write_minimal_bundle(tmp_path)
        (bundle / "manifest.json").write_text("{broken")
        assert main(["doctor", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert "doctor:" in err and "manifest.json" in err
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# Doctor report content
# ----------------------------------------------------------------------
class TestDoctorReport:
    def test_report_flags_cold_cache_pattern(self, tmp_path):
        rows = [
            _flight_fields(digest="cold" * 4, cache_hit=(i % 4 == 3),
                           wall_seconds=1e-3)
            for i in range(8)
        ]
        flight = "".join(
            json.dumps({"seq": i + 1, **r}) + "\n"
            for i, r in enumerate(rows)
        )
        bundle = load_bundle(_write_minimal_bundle(
            tmp_path, **{"flight.jsonl": flight}
        ))
        report = render_report(bundle)
        assert "plan-cache anomalies" in report
        assert "coldcold" in report           # the low-hit digest flagged

    def test_report_ranks_offenders_by_tail(self, tmp_path):
        rows = (
            [_flight_fields(tenant="slowco", digest="s" * 16,
                            wall_seconds=0.5)] * 2
            + [_flight_fields(tenant="fastco", digest="f" * 16,
                              wall_seconds=0.001)] * 2
        )
        flight = "".join(
            json.dumps({"seq": i + 1, **r}) + "\n"
            for i, r in enumerate(rows)
        )
        report = render_report(load_bundle(_write_minimal_bundle(
            tmp_path, **{"flight.jsonl": flight}
        )))
        offenders = report[report.index("top offenders"):]
        assert offenders.index("slowco") < offenders.index("fastco")

    def test_trace_gap_called_out(self, tmp_path):
        # An exemplar pointing at a trace id absent from the bundled
        # export is a forensic gap the report must surface.
        bundle = load_bundle(_write_minimal_bundle(
            tmp_path,
            **{
                "metrics.prom":
                    'lat_bucket{le="1.0"} 1 # {trace_id="t0dead"} 0.5\n',
                "trace.json": json.dumps({"traceEvents": []}),
            },
        ))
        assert bundle.exemplar_trace_ids() == ["t0dead"]
        assert "TRACE GAP" in render_report(bundle)

    def test_trigger_reasons_all_known_to_policy(self):
        # The policy accepts every documented reason (doc/code lockstep).
        BlackboxPolicy(trigger_on=TRIGGER_REASONS)
