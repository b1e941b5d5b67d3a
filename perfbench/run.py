"""Repository benchmark: three serving workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solver_cg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs the workload untraced, in parts that each have a
server of their own set-up, and reports the end-to-end metrics;
``--trace 1`` splits the time into three phases -- untraced,
with every layer wrapped (see ``layers.py``), untraced again -- and
reports the per-layer metrics of the traced phase.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (names and units as listed in
``BENCHMARK.json``).  ``--workload all`` runs every workload both ways
in child processes and prints their reports.

The run exits non-zero when a response differs from the reference, a
process, thread or shared-memory segment outlives the server, the two
runs of a traced invocation disagree on the simulated-truth digest, or
the open-loop generator fell behind its schedule.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread: on a 2-core host, idle BLAS threads spinning beside
# the client threads and pool workers add noise, not speed.  Set before
# NumPy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: Parts of an untraced run, each served by a server of its own set-up;
#: ``setup_s`` is the median of their set-ups.
PARTS = 7
#: Fewest timed requests a run may report (p95 then has >= 10 beyond it).
MIN_REQUESTS = 200
#: Calls timed for the ``ref.spmv_ms`` yardstick.
REF_CALLS = 31
#: End-to-end metrics printed for people but left out of
#: ``BENCHMARK.json``: ``failed_frac`` reads 0 on a healthy run, and
#: ``p95_ms`` spreads across runs on the reference host by more than the
#: largest bound a gated metric may have.
UNGATED = {"p95_ms": "ms", "failed_frac": "share"}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree_pss_kb() -> int:
    """Proportional set size of this process and its children, in KiB.

    PSS divides each page among the processes that map it, so the pages
    a forked pool worker shares with this process are counted once.
    """
    pids = [str(os.getpid())]
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids += fh.read().split()
        except OSError:  # a thread that ended after it was listed
            pass
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:  # a child that ended after it was listed
            pass
    return total


class PeakMemory:
    """The peak of :func:`_tree_pss_kb`, sampled on a thread."""

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.peak_kb = _tree_pss_kb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="bench-memory", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.peak_kb = max(self.peak_kb, _tree_pss_kb())

    def stop(self) -> float:
        """Stop sampling and return the peak in MB."""
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0


def _leaks(threads_before: int, segments) -> list:
    """What a closed server left behind: processes, threads, segments."""
    from multiprocessing import shared_memory

    found = [f"process {p.pid}" for p in multiprocessing.active_children()]
    for name in segments:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        shm.close()
        found.append(f"shared-memory segment {name}")
    for _ in range(100):  # joined threads can take a moment to retire
        if threading.active_count() <= threads_before:
            break
        sleep(0.01)
    else:
        found.append(f"{threading.active_count() - threads_before} threads")
    return found


def _close(workload, threads_before: int) -> list:
    segments = workload.shm_segments()
    workload.teardown()
    return _leaks(threads_before, segments)


def _reap() -> None:
    """Stop every process the run started and wait for each to end.

    Publishing shared memory starts Python's resource tracker, a process
    that is not a ``multiprocessing`` child and would otherwise outlive
    this one by a moment; it is stopped last, once no child holds its
    pipe open.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _quantile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def _ref_ms(matrix) -> float:
    import numpy as np

    x = np.random.default_rng(0).standard_normal(matrix.ncols)
    times = []
    for _ in range(REF_CALLS):
        t0 = perf_counter()
        matrix.matvec_reference(x)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_phase(cls, seed: int, seconds: float, *, parts: int,
              traced: bool) -> dict:
    """Serve the timed traffic in ``parts`` parts: set up, serve one
    part, tear down.

    A host's slow stretches last seconds, so set-ups spread over the run
    meet them about as often as the traffic does; set-ups made one after
    another would all fall in the same stretch.
    """
    from layers import TRACER, install, uninstall
    from workloads import Tally

    workload = cls(seed, seconds)
    threads_before = threading.active_count()
    warm = Tally()
    tally = Tally()
    leaks: list = []
    setup_times = []
    stats = []
    #: Timed requests served by the end of each part.
    part_ends = []
    wall = 0.0
    dropped = 0
    if traced:
        install()
    try:
        for part in range(parts):
            t0, checks0 = perf_counter(), warm.check_seconds
            workload.setup(warm)
            # Checking warm-up responses is the benchmark's work.
            checks = (warm.check_seconds - checks0) / workload.clients
            setup_times.append(perf_counter() - t0 - checks)
            server = workload.server
            recorder = server.trace_recorder
            before = server.stats()
            dropped0 = recorder.dropped if recorder is not None else 0
            if part == 0:
                TRACER.reset()
            wall += workload.run(tally, part, parts)
            stats.append((before, server.stats()))
            part_ends.append(len(tally.latencies))
            if recorder is not None:
                dropped += recorder.dropped - dropped0
            totals = TRACER.totals()
            client_totals = TRACER.totals(clients_only=True)
            leaks += _close(workload, threads_before)
    finally:
        workload.teardown()  # a no-op unless a part raised
        if traced:
            uninstall()
    invalid = []
    reason = workload.invalid_reason(tally)
    if reason:
        invalid.append(reason)
    if len(tally.latencies) < MIN_REQUESTS:
        invalid.append(f"only {len(tally.latencies)} timed requests")
    return {
        "workload": workload,
        "tally": tally,
        "warm": warm,
        "wall": wall,
        "setup_times": setup_times,
        "part_ends": part_ends,
        "stats": stats,
        "trace_dropped": dropped,
        "totals": totals,
        "client_totals": client_totals,
        "leaks": leaks,
        "invalid": invalid,
    }


def end_to_end(phase: dict, peak_mb: float) -> dict:
    workload, tally = phase["workload"], phase["tally"]
    busy = phase["wall"]
    if workload.closed_loop:
        # Checking responses is the benchmark's work, not the server's.
        busy -= tally.check_seconds / workload.clients
    return {
        "setup_s": statistics.median(phase["setup_times"]),
        "p50_ms": _quantile_ms(tally.latencies, 50),
        "p95_ms": _quantile_ms(tally.latencies, 95),
        "throughput_rps": len(tally.latencies) / busy,
        "failed_frac": tally.failed / tally.attempted,
        "sim_gflops": tally.flops / tally.sim_seconds / 1e9,
        "peak_rss_mb": peak_mb,
    }


def _delta_cache(before, after):
    hits = after.cache.hits - before.cache.hits
    misses = after.cache.misses - before.cache.misses
    if after.shards is not None:
        hits += after.shards.cache.hits - before.shards.cache.hits
        misses += after.shards.cache.misses - before.shards.cache.misses
    return hits, misses


def _diff(after, before, field: str) -> float:
    if after is None:
        return 0.0
    return getattr(after, field) - getattr(before, field)


def per_layer(phase: dict, untraced_p50_ms: float) -> dict:
    tally = phase["tally"]
    self_s, calls, counts, _ = phase["totals"]
    c_self, _, _, top_s = phase["client_totals"]
    (before, after), = phase["stats"]  # a traced phase has one part
    n = len(tally.latencies)

    def ms(*layers: str) -> float:
        return sum(self_s.get(layer, 0.0) for layer in layers) / n * 1e3

    hits, misses = _delta_cache(before, after)
    decisions = _diff(after.learning, before.learning, "decisions")
    explored = _diff(after.learning, before.learning, "explored")
    batches = _diff(after.scheduler, before.scheduler, "batches")
    rhs = _diff(after.scheduler, before.scheduler, "coalesced_rhs")
    fp_calls = calls.get("serve.fingerprint", 0)
    worker_s = counts.get("shard.worker", 0.0)
    # Self time the trace pins on a named layer, over the client
    # threads' traced wall; the server's own residual and the
    # benchmark's checks are not attributed.
    bench_s = sum(v for k, v in c_self.items() if k.startswith("bench."))
    named_s = sum(v for k, v in c_self.items()
                  if k != "serve" and not k.startswith("bench."))
    lateness = tally.lateness or [0.0]
    return {
        "device.price_ms": ms("device.price"),
        "device.self_ms": ms("device"),
        "kernels.compute_ms": (self_s.get("kernels.compute", 0.0)
                               + counts.get("kernels.compute.worker", 0.0))
        / n * 1e3,
        "kernels.launches_per_req": counts.get("kernels.launches", 0.0) / n,
        "kernels.flops": tally.flops / n,
        "kernels.bytes": tally.bytes / n,
        "serve.fingerprint.calls_per_req": fp_calls / n,
        "serve.fingerprint.hash_ms": ms("serve.fingerprint.hash"),
        "serve.fingerprint.hash_frac": (
            calls.get("serve.fingerprint.hash", 0) / fp_calls
            if fp_calls else 0.0),
        "serve.plan_cache.hit_frac": (hits / (hits + misses)
                                      if hits + misses else 0.0),
        "serve.plan_cache.self_ms": ms("serve.plan_cache"),
        "core.plan_ms": ms("core.plan"),
        "core.plan_calls": calls.get("core.plan", 0),
        "features.extract_ms": ms("features.extract"),
        "binning.bin_rows_ms": ms("binning.bin_rows"),
        "serve.frontdoor.admit_ms": ms("serve.frontdoor"),
        "serve.frontdoor.shed": _diff(after.frontdoor, before.frontdoor,
                                      "shed"),
        "learn.decide_ms": ms("learn.decide"),
        "learn.observe_ms": ms("learn.observe"),
        "learn.explore_frac": explored / decisions if decisions else 0.0,
        "learn.replans": counts.get("learn.replans", 0.0),
        "resilient.self_ms": ms("resilient"),
        "resilient.attempts_per_req": _diff(
            after.resilience, before.resilience, "attempts") / n,
        "trace.observe_ms": ms("trace.observe"),
        "trace.dropped": phase["trace_dropped"],
        "blackbox.record_ms": ms("blackbox.record"),
        "serve.self_ms": ms("serve"),
        "serve.invalidate_ms": ms("serve.invalidate"),
        "shard.scheduler.wait_ms": counts.get("shard.scheduler.wait", 0.0)
        / n * 1e3,
        "shard.scheduler.width": rhs / batches if batches else 0.0,
        "shard.executor_ms": ms("shard.executor"),
        "shard.ipc_ms": (self_s.get("shard.backend", 0.0) - worker_s)
        / n * 1e3,
        "shard.worker_ms": worker_s / n * 1e3,
        "shard.lease_ms": ms("shard.lease"),
        "shard.imbalance": (statistics.fmean(tally.imbalances)
                            if tally.imbalances else 0.0),
        "shard.restarts": counts.get("shard.restarts", 0.0),
        "solvers.vector_ms": ms("solvers.vector"),
        "loadgen.lateness_p50_ms": _quantile_ms(lateness, 50),
        "loadgen.lateness_p95_ms": _quantile_ms(lateness, 95),
        "ref.spmv_ms": _ref_ms(phase["workload"].ref_matrix),
        "attributed_frac": named_s / (top_s - bench_s) if top_s else 0.0,
        "trace_overhead": (_quantile_ms(tally.latencies, 50)
                           / untraced_p50_ms),
    }


def _problems(phase: dict) -> list:
    out = []
    for tally in (phase["warm"], phase["tally"]):
        if tally.mismatches:
            out.append(f"{tally.mismatches} responses differ from the "
                       f"reference")
    out += [f"leak: {leak}" for leak in phase["leaks"]]
    out += [f"invalid run: {reason}" for reason in phase["invalid"]]
    return out


def _describe(phase: dict, label: str) -> None:
    tally = phase["tally"]
    print(f"[{label}] {tally.attempted} timed requests, "
          f"{tally.failed} failed (failed_frac "
          f"{tally.failed / max(tally.attempted, 1):.4f})")
    print(f"[{label}] set-ups (s): "
          + " ".join(f"{t:.3f}" for t in phase["setup_times"]))
    bounds = [0] + phase["part_ends"]
    print(f"[{label}] p50 per part (ms): " + " ".join(
        f"{_quantile_ms(tally.latencies[lo:hi], 50):.3f}"
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo))
    if tally.errors:
        print(f"[{label}] errors: {tally.errors}")
    if tally.hexdigest is not None:
        print(f"[{label}] simulated-truth digest over {tally.digested} "
              f"requests: {tally.hexdigest}")
    if phase["workload"].clients > 1:
        print(f"[{label}] mean coalesced width: "
              f"{statistics.fmean(tally.widths):.3f}")
    if tally.lateness:
        print(f"[{label}] generator lateness p50 "
              f"{_quantile_ms(tally.lateness, 50):.3f} ms, p95 "
              f"{_quantile_ms(tally.lateness, 95):.3f} ms")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    spec = _benchmark_spec()
    cls = WORKLOADS[name]
    if trace:
        # Untraced, traced, untraced again: the phases share the run's
        # time.  A fresh process runs its first seconds slower, so the
        # first phase only warms it up and cross-checks the digest; the
        # traced phase is compared with the phase after it.
        labels = ("untraced", "traced", "untraced")
        phases = [run_phase(cls, seed, seconds / 3, parts=1,
                            traced=label == "traced") for label in labels]
    else:
        labels = ("untraced",)
        memory = PeakMemory()
        phases = [run_phase(cls, seed, seconds, parts=PARTS,
                            traced=False)]
        peak_mb = memory.stop()
    problems = []
    for label, phase in zip(labels, phases):
        _describe(phase, label)
        problems += _problems(phase)
    digests = {p["tally"].hexdigest for p in phases}
    if len(digests) > 1:
        problems.append(f"traced and untraced digests differ: {digests}")
    if trace:
        values = per_layer(phases[1],
                           _quantile_ms(phases[2]["tally"].latencies, 50))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(phases[0], peak_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for metric, value in values.items():
        unit = units.get(metric) or UNGATED[metric] + " (not gated)"
        print(f"  {metric:<34s} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(p["tally"].attempted for p in phases),
        "failed": sum(p["tally"].failed + p["warm"].mismatches
                      + len(p["leaks"]) for p in phases),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items() if metric in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced.

    Each run is a child process, so no run inherits another's caches or
    peak memory; its report is printed without the JSON line.
    """
    from workloads import WORKLOADS

    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            print(f"\n== {name}, seed {seed}, {seconds:g} s, "
                  f"{'per layer (traced)' if trace else 'end to end'}",
                  flush=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            print("\n".join(proc.stdout.splitlines()[:-1]), proc.stderr,
                  flush=True)
            status |= proc.returncode != 0
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="solver_cg, tenant_mix, coalesced_shards "
                             "or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        _reap()


if __name__ == "__main__":
    sys.exit(main())
