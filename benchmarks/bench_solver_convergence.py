"""BENCH-SOLVERS: end-to-end solver convergence through the serving layer.

One seeded SPD system, one seeded right-hand side, and the same CG
solve driven through an :class:`~repro.serve.SpMVServer` once per shard
execution backend (unsharded, inline, process).  Per backend
the reading records what an operator of a solver service cares about:

- **convergence**: iterations to tolerance, final residual, and the
  full residual history (identical across backends -- the solve is
  deterministic, which the gate checks bit-for-bit);
- **end-to-end time**: wall seconds and *simulated* device seconds for
  the whole solve;
- **per-iteration latency**: p50/p99 over the solve's iterations, from
  the session's own :class:`~repro.trace.SLOMonitor`;
- **plan economy**: SpMV submits vs plan-cache hits (a healthy
  long-lived solve misses exactly once per (matrix, shard)).

A chaos acceptance run rides along: the same solve under a 10 %
seeded fault rate with the resilience layer on.  The gate: the faulted
solve converges to the same tolerance with every iterate finite and
its solution matching the clean run's -- latency may degrade, the
answer may not.

Results land in ``benchmarks/results/BENCH_solvers.json``.
"""

from __future__ import annotations

import json
import pathlib
from time import perf_counter

import numpy as np

from repro.matrices import generators as gen
from repro.observe import NULL_REGISTRY, MetricsRegistry
from repro.resilient import (
    ChaosDevice,
    FaultSchedule,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.device import SimulatedDevice
from repro.serve import SpMVServer
from repro.shard import ShardingPolicy
from repro.solvers import SolverSession, cg

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_solvers.json"
)

N_ROWS = 4000
SEED = 0
TOL = 1e-10
MAX_ITERATIONS = 400
SHARDS = 4
CHAOS_RATE = 0.1

#: (config name, ShardingPolicy or None) per backend under test.
CONFIGS = (
    ("unsharded", None),
    ("inline", ShardingPolicy(n_shards=SHARDS, backend="inline")),
    ("process", ShardingPolicy(n_shards=SHARDS, backend="process")),
)


def _system():
    matrix = gen.spd_system(N_ROWS, seed=SEED)
    b = np.random.default_rng(SEED).standard_normal(N_ROWS)
    return matrix, b


def _solve_reading(server: SpMVServer, matrix, b) -> dict:
    """Run the CG solve through ``server``; return the full reading."""
    with SolverSession(matrix, server) as session:
        t0 = perf_counter()
        result = cg(session, b, tol=TOL, max_iterations=MAX_ITERATIONS)
        wall = perf_counter() - t0
        stats = session.stats()
        health = session.health_snapshot()
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "residual_history": [r.residual_norm for r in result.history],
        "convergence_wall_seconds": wall,
        "convergence_simulated_seconds": result.simulated_seconds,
        "iteration_latency_quantiles": {
            name: health["quantiles"][name] for name in ("p50", "p99")
        },
        "spmv_submits": stats.spmv_calls,
        "plan_cache_hits": stats.cache_hits,
        "degraded_submits": stats.degraded_spmvs,
        "resilience_attempts": stats.attempts,
    }


def run_solver_benchmark() -> dict:
    """CG per backend + the chaos acceptance run; comparison dict."""
    matrix, b = _system()
    configs = {}
    for name, sharding in CONFIGS:
        server = SpMVServer(registry=NULL_REGISTRY, sharding=sharding)
        reading = _solve_reading(server, matrix, b)
        server.close()
        if sharding is not None:
            reading["n_shards"] = sharding.n_shards
            reading["backend"] = (
                sharding.backend.value
                if hasattr(sharding.backend, "value") else sharding.backend
            )
        configs[name] = reading

    registry = MetricsRegistry()
    device = ChaosDevice(
        SimulatedDevice(registry=registry),
        FaultSchedule(rate=CHAOS_RATE, seed=SEED),
    )
    chaos_server = SpMVServer(
        device=device,
        registry=registry,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, backoff_base=1e-4,
                              backoff_max=1e-3),
        ),
    )
    chaos = _solve_reading(chaos_server, matrix, b)
    chaos_server.close()
    chaos["fault_rate"] = CHAOS_RATE
    chaos["faults_injected"] = sum(device.injected_counts().values())

    return {
        "experiment": "BENCH-SOLVERS",
        "workload": {
            "method": "cg",
            "family": "spd_system",
            "nrows": N_ROWS,
            "tol": TOL,
            "max_iterations": MAX_ITERATIONS,
            "seed": SEED,
        },
        "configs": configs,
        "chaos": chaos,
    }


def test_solver_convergence_benchmark():
    """Gates: every backend converges with the *same* iterate history,
    exactly one plan build per (matrix, shard), and the chaos run
    converges uncorrupted; then the JSON lands on disk."""
    result = run_solver_benchmark()
    configs = result["configs"]
    base = configs["unsharded"]
    assert base["converged"]
    # Plan economy: one miss total unsharded, one miss per shard group
    # otherwise -- every later iteration is a cache hit.
    assert base["plan_cache_hits"] == base["spmv_submits"] - 1
    for name in ("inline", "process"):
        reading = configs[name]
        assert reading["converged"], name
        # Identical convergence trajectory, bit for bit.
        assert reading["iterations"] == base["iterations"], name
        assert reading["residual_history"] == base["residual_history"], name
        assert reading["plan_cache_hits"] == reading["spmv_submits"] - 1
        q = reading["iteration_latency_quantiles"]
        assert 0.0 < q["p50"] <= q["p99"]

    chaos = result["chaos"]
    assert chaos["converged"]
    assert chaos["faults_injected"] > 0
    assert chaos["resilience_attempts"] > chaos["spmv_submits"]
    assert np.isfinite(chaos["residual_history"]).all()
    # Degraded latency is acceptable; a degraded *answer* is not.
    norm_b = float(np.linalg.norm(
        np.random.default_rng(SEED).standard_normal(N_ROWS)
    ))
    assert chaos["residual_norm"] <= 10 * TOL * norm_b

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n[saved to {RESULTS_PATH}]")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_solver_convergence_benchmark()
    print(RESULTS_PATH.read_text())
