"""BENCH-SERVING: unsharded vs sharded vs coalesced serving throughput.

Seeds the serving-layer perf trajectory: one seeded workload (repeated
single-RHS traffic over a few sparsity patterns) is served four ways --

- **unsharded**: the plain ``SpMVServer`` hot path, sequential submits;
- **sharded** (inline backend):
  ``ShardingPolicy(n_shards=4, backend="inline")`` -- each request
  executes as 4 nnz-balanced row-shards, one simulated device each, so
  the accounted simulated time per request is the shard *makespan*.
  The shards run one after another on the submitting thread; a warm
  request reuses the structure's cached shard set and bound shard
  plans, so its wall time is the shards' kernel compute plus a small
  per-shard overhead;
- **sharded_process** (process backend): the same policy over a
  ``ProcessPoolExecutor`` with the CSR row-blocks published once per
  structure in ``multiprocessing.shared_memory`` -- only plan + shard
  descriptors cross the pickle boundary, and warm requests reuse
  worker-side bound plans (as every path reuses its plan cache's).
  This one must win in *wall clock* too;
- **coalesced**: ``scheduler=CoalescePolicy(...)`` with concurrent
  clients -- same-matrix requests share one multi-RHS dispatch, paying
  the per-dispatch overhead once per batch instead of once per vector.

A fifth configuration, **blackbox_on**, re-runs the unsharded path with
the incident flight recorder flying (``blackbox=BlackboxPolicy()``, no
bundle dir) and gates its overhead: wall p50 must stay within 1.05x of
the recorder-off baseline -- always-on observability that taxes the
hot path more than 5% is not always-on for long.

Two readings per configuration land in
``benchmarks/results/BENCH_serving.json``: wall requests/sec + p50/95/99
latency (real, host-dependent) and total *simulated* seconds from the
server's accounting (deterministic).  The acceptance gates: sharding
(makespan < single-device time) and coalescing (batched overhead
amortisation) beat the unsharded *simulated* baseline, the process
backend's *wall* p50 undercuts the unsharded wall p50, and the flight
recorder rides within the 1.05x envelope.
"""

from __future__ import annotations

import json
import pathlib
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.blackbox import BlackboxPolicy
from repro.matrices import generators as gen
from repro.observe import NULL_REGISTRY
from repro.serve import SpMVServer
from repro.shard import CoalescePolicy, ShardingPolicy
from repro.trace import SlidingQuantiles

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_serving.json"
)

#: Seeded workload: a few patterns, many repeats (plan-cache-friendly
#: solver-style traffic where serving optimisations should pay off).
#: Sized so per-request device work dominates fixed submit overhead --
#: on narrow hosts the process backend's IPC round trip costs a few
#: hundred microseconds.  Every path runs bound plans (priced once per
#: plan), so what remains for the process backend to win on is kernel
#: compute spread over its workers, net of that round trip.
N_MATRICES = 3
N_ROWS = 20_000
N_REQUESTS = 96
SEED = 0

SHARDS = 4
COALESCE_WIDTH = 8


def _workload():
    matrices = [
        gen.power_law_graph(N_ROWS, seed=SEED + i) for i in range(N_MATRICES)
    ]
    rng = np.random.default_rng(SEED)
    return [
        (matrices[i % N_MATRICES],
         rng.standard_normal(matrices[i % N_MATRICES].ncols))
        for i in range(N_REQUESTS)
    ]


def _drive(server: SpMVServer, requests, *, concurrency: int = 1) -> dict:
    """Serve the workload; return wall + simulated readings.

    Per-request wall latencies are collected around each ``submit`` and
    summarised as p50/p95/p99 (list appends are GIL-atomic, so the
    concurrent path needs no lock), and the server's per-stage wall
    accounting (fingerprint / plan / execute) rides along -- the
    breakdown that says *where* a regression lives, not just that one
    happened.
    """
    latencies: list = []

    def timed_submit(m, x):
        t = perf_counter()
        server.submit(m, x)
        latencies.append(perf_counter() - t)

    # Untimed warmup: populate the plan cache and fault in the numpy
    # kernels so the timed quantiles measure the steady state, not the
    # first-touch costs (which land on whichever config runs first and
    # would make the cross-config ratios order-dependent).
    for m, x in requests[:8]:
        server.submit(m, x)
    t0 = perf_counter()
    if concurrency == 1:
        for m, x in requests:
            timed_submit(m, x)
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            list(pool.map(lambda mx: timed_submit(mx[0], mx[1]), requests))
    wall = perf_counter() - t0
    server.close()  # drain any scheduler so the stats are final
    stats = server.stats()
    quantiles = SlidingQuantiles(window=max(1, len(latencies)))
    for v in latencies:
        quantiles.observe(v)
    reading = {
        "requests": len(requests),
        "wall_seconds": wall,
        "wall_requests_per_sec": len(requests) / wall,
        "wall_latency_quantiles": {
            name: quantiles.quantile(q)
            for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
        },
        "stage_seconds": dict(stats.stage_seconds),
        "simulated_seconds": stats.simulated_seconds,
        "dispatch_sequences": stats.dispatch_sequences,
        "kernel_launches": stats.kernel_launches,
    }
    if stats.scheduler is not None:
        reading["mean_batch_width"] = stats.scheduler.mean_width
        reading["batches"] = stats.scheduler.batches
    if stats.shards is not None:
        reading["max_imbalance"] = stats.shards.max_imbalance
    return reading


def run_serving_benchmark() -> dict:
    """Run all three configurations and return the comparison dict."""
    requests = _workload()
    # The recorder-overhead pair is driven twice, interleaved, and each
    # side keeps its better p50: the ratio being gated is ~1.0x, so a
    # single scheduler hiccup on either side would otherwise dominate
    # the comparison.  The other configs measure multi-x effects and a
    # single pass is plenty.
    unsharded_runs = []
    blackbox_runs = []
    for _ in range(2):
        unsharded_runs.append(_drive(
            SpMVServer(registry=NULL_REGISTRY), requests
        ))
        blackbox_runs.append(_drive(
            SpMVServer(registry=NULL_REGISTRY, blackbox=BlackboxPolicy()),
            requests,
        ))

    def _best(runs):
        return min(runs, key=lambda r: r["wall_latency_quantiles"]["p50"])

    unsharded = _best(unsharded_runs)
    blackbox_on = _best(blackbox_runs)
    sharded = _drive(
        SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=SHARDS, backend="inline"),
        ),
        requests,
    )
    sharded_process = _drive(
        SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=SHARDS, backend="process"),
        ),
        requests,
    )
    coalesced = _drive(
        SpMVServer(
            registry=NULL_REGISTRY,
            scheduler=CoalescePolicy(
                max_batch=COALESCE_WIDTH, max_wait_seconds=0.01
            ),
        ),
        requests,
        concurrency=COALESCE_WIDTH,
    )
    base = unsharded["simulated_seconds"]
    return {
        "experiment": "BENCH-SERVING",
        "workload": {
            "family": "power_law_graph",
            "matrices": N_MATRICES,
            "nrows": N_ROWS,
            "requests": N_REQUESTS,
            "seed": SEED,
        },
        "configs": {
            "unsharded": unsharded,
            "blackbox_on": blackbox_on,
            "sharded": {**sharded, "n_shards": SHARDS, "backend": "inline"},
            "sharded_process": {
                **sharded_process, "n_shards": SHARDS, "backend": "process",
            },
            "coalesced": {**coalesced, "max_batch": COALESCE_WIDTH},
        },
        "simulated_speedup_vs_unsharded": {
            "sharded": base / sharded["simulated_seconds"],
            "sharded_process": base / sharded_process["simulated_seconds"],
            "coalesced": base / coalesced["simulated_seconds"],
        },
        "wall_p50_speedup_vs_unsharded": {
            "sharded": (unsharded["wall_latency_quantiles"]["p50"]
                        / sharded["wall_latency_quantiles"]["p50"]),
            "sharded_process": (
                unsharded["wall_latency_quantiles"]["p50"]
                / sharded_process["wall_latency_quantiles"]["p50"]
            ),
        },
        "blackbox_overhead_wall_p50": (
            blackbox_on["wall_latency_quantiles"]["p50"]
            / unsharded["wall_latency_quantiles"]["p50"]
        ),
    }


def test_serving_throughput_comparison():
    """Sharding and coalescing must beat the unsharded simulated cost.

    The wall-clock numbers are informational (host-dependent, and the
    simulated device underneath is cheap enough that Python overhead
    dominates); the *simulated* accounting is deterministic and is what
    this gate checks: sharded makespans and coalesced amortisation both
    undercut the one-device, one-vector baseline.
    """
    result = run_serving_benchmark()
    speedup = result["simulated_speedup_vs_unsharded"]
    assert speedup["sharded"] > 1.0
    assert speedup["sharded_process"] > 1.0
    assert speedup["coalesced"] > 1.0
    # The process backend must also win in real wall clock: its shards
    # run in parallel.  Warm requests skip fingerprint hashing (identity
    # cache), reuse worker-side bound plans, and cross the IPC boundary
    # once -- that has to undercut the full unsharded submit path.
    assert result["wall_p50_speedup_vs_unsharded"]["sharded_process"] > 1.0
    # The always-on flight recorder must stay within 5% of the plain
    # hot path at wall p50 -- one ring append per request, no more.
    assert result["blackbox_overhead_wall_p50"] <= 1.05
    # Coalescing genuinely batched (width > 1 on average).
    assert result["configs"]["coalesced"]["mean_batch_width"] > 1.0
    # The per-stage breakdown is present and ordered (p50 <= p99).
    for config in result["configs"].values():
        q = config["wall_latency_quantiles"]
        assert q["p50"] <= q["p95"] <= q["p99"]
        assert set(config["stage_seconds"]) >= {"fingerprint", "execute"}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n[saved to {RESULTS_PATH}]")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_serving_throughput_comparison()
    print(RESULTS_PATH.read_text())
