"""Command-line interface: ``python -m repro <command>``.

Nine commands cover the deployment workflow:

- ``train``  -- offline-train a tuner on a synthetic corpus (or point it
  at a directory of Matrix Market files) and save it to JSON;
- ``plan``   -- load a trained tuner and print the execution plan for a
  matrix (``.mtx`` file or a synthetic ``family:nrows`` spec);
- ``run``    -- plan + execute an SpMV, verify the result, and compare
  the simulated time against the single-kernel and CSR-Adaptive
  baselines;
- ``serve-demo`` -- drive an :class:`~repro.serve.SpMVServer` with
  repeated single and batched traffic and print the serving stats
  (plan-cache hit rate, per-stage seconds, launches amortised); pass
  ``--metrics`` to also dump the metrics registry,
  ``--workload solver`` to replace the mixed traffic with a CG solve
  whose every iteration rides the serving layer, or
  ``--tenants N`` (optionally with ``--overload FACTOR``) to serve
  mixed-tenant traffic through the admission front door and print
  per-tenant shedding + admission stats, or ``--bundle-dir DIR`` to
  fly the incident flight recorder and auto-write triggered debug
  bundles into ``DIR``;
- ``doctor`` -- load a debug bundle (or the latest bundle in a
  ``--bundle-dir`` output directory) and render an incident report:
  trigger timeline, flight-tail latency, top offenders, plan-cache
  and exploration anomalies, exemplar/trace cross-check;
- ``solve``  -- run an iterative solver (CG, BiCGSTAB, Jacobi, power
  iteration) end to end through the server, with optional sharding and
  chaos, and print the convergence history + per-iteration SLO health;
- ``metrics`` -- run the same demo traffic against a fresh metrics
  registry and emit the Prometheus-text and JSON snapshots (cache
  hits/misses, per-stage latency histograms, per-kernel dispatch
  counters, structured events);
- ``trace``  -- kernel-level profile of a matrix's plan (lane occupancy,
  memory/compute split, roofline efficiency per launch), or a full
  ``(granularity, bin, kernel)`` sweep with ``--sweep``;
- ``info``   -- show the simulated device and the kernel pool.

Examples
--------
::

    python -m repro train --matrices 150 --out tuner.json
    python -m repro plan --model tuner.json --matrix road_network:50000
    python -m repro run  --model tuner.json --matrix my_matrix.mtx
    python -m repro serve-demo --requests 32 --batch 8 --metrics
    python -m repro serve-demo --shards 4 --coalesce --trace \\
        --trace-out trace.json
    python -m repro serve-demo --workload solver --requests 200
    python -m repro serve-demo --tenants 3 --overload 2 --requests 48
    python -m repro serve-demo --chaos --bundle-dir bundles/
    python -m repro doctor bundles/
    python -m repro solve --method cg --matrix spd:2000 --shards 4 \\
        --backend process
    python -m repro solve --method jacobi --matrix spd:2000 --chaos
    python -m repro trace --matrix power_law:5000 --sweep
    python -m repro metrics --format prometheus
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.baselines.csr_adaptive import CSRAdaptiveSpMV
from repro.baselines.single_kernel import SingleKernelSpMV
from repro.core.framework import AutoTuner
from repro.core.tuning_space import TuningSpace
from repro.device.spec import DeviceSpec
from repro.formats.csr import CSRMatrix
from repro.formats.matrixmarket import read_matrix_market
from repro.kernels.registry import DEFAULT_KERNEL_NAMES
from repro.learn import LearningPolicy
from repro.matrices import generators as gen
from repro.matrices.collection import generate_collection
from repro.device import SimulatedDevice
from repro.observe import (
    MetricsRegistry,
    RecordingSink,
    set_registry,
    to_json,
    to_prometheus_text,
)
from repro.resilient import (
    ChaosDevice,
    FaultSchedule,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serve import AdmissionPolicy, SpMVServer, TenantConfig
from repro.shard import PartitionStrategy
from repro.shard.executor import ShardingPolicy
from repro.shard.scheduler import CoalescePolicy
from repro.trace import KernelProfiler, SLOTarget, TracingPolicy

__all__ = ["main", "build_parser", "load_matrix"]

#: Synthetic families reachable from the CLI as ``family:nrows``.
_CLI_FAMILIES = {
    "road_network": lambda n, seed: gen.road_network(n, seed=seed),
    "banded": lambda n, seed: gen.banded(n, seed=seed),
    "power_law": lambda n, seed: gen.power_law_graph(n, seed=seed),
    "cfd": lambda n, seed: gen.cfd_like(n, seed=seed),
    "bimodal": lambda n, seed: gen.bimodal_rows(n, seed=seed),
    "fem_constrained": lambda n, seed: gen.fem_constrained(n, seed=seed),
    "quantum_chemistry": lambda n, seed: gen.quantum_chemistry_like(
        n, seed=seed
    ),
    "spd": lambda n, seed: gen.spd_system(n, seed=seed),
}


def load_matrix(spec: str, *, seed: int = 0) -> CSRMatrix:
    """Resolve a CLI matrix argument.

    Accepts a Matrix Market path (``*.mtx``) or a synthetic spec of the
    form ``family:nrows`` (see the families above).
    """
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    if ":" in spec:
        family, _, size = spec.partition(":")
        if family not in _CLI_FAMILIES:
            raise SystemExit(
                f"unknown family {family!r}; choose from "
                f"{sorted(_CLI_FAMILIES)} or pass a .mtx file"
            )
        try:
            n = int(size)
        except ValueError:
            raise SystemExit(f"bad size in matrix spec {spec!r}") from None
        return _CLI_FAMILIES[family](n, seed)
    raise SystemExit(
        f"matrix spec {spec!r} is neither a .mtx path nor 'family:nrows'"
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_train(args: argparse.Namespace) -> int:
    space = TuningSpace(include_single_bin=not args.no_single_bin)
    tuner = AutoTuner(
        space=space,
        classifier=args.classifier,
        extended_features=args.extended_features,
        seed=args.seed,
    )
    if args.mtx_dir:
        paths = sorted(Path(args.mtx_dir).glob("*.mtx"))
        if not paths:
            raise SystemExit(f"no .mtx files under {args.mtx_dir}")
        corpus = [read_matrix_market(p) for p in paths]
        print(f"training on {len(corpus)} Matrix Market files ...")
    else:
        corpus = generate_collection(args.matrices, seed=args.seed)
        print(f"training on {args.matrices} synthetic matrices ...")
    report = tuner.fit(corpus)
    print(f"  stage-1 hold-out error: {report.stage1_error:.1%}")
    print(f"  stage-2 hold-out error: {report.stage2_error:.1%}")
    tuner.save(args.out)
    print(f"saved tuner to {args.out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    tuner = AutoTuner.load(args.model)
    matrix = load_matrix(args.matrix, seed=args.seed)
    print(f"matrix: {matrix}")
    plan = tuner.plan(matrix)
    print(plan.describe())
    if args.oracle:
        oracle = tuner.oracle_plan(matrix)
        print(
            f"\noracle: {oracle.scheme.name} "
            f"({oracle.predicted_seconds * 1e3:.3f} ms; prediction is "
            f"{plan.predicted_seconds / oracle.predicted_seconds:.3f}x)"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    tuner = AutoTuner.load(args.model)
    matrix = load_matrix(args.matrix, seed=args.seed)
    print(f"matrix: {matrix}")
    v = np.random.default_rng(args.seed).standard_normal(matrix.ncols)
    result = tuner.run(matrix, v)
    reference = matrix @ v
    ok = np.allclose(result.u, reference, atol=1e-8)
    print(f"result verified: {'OK' if ok else 'MISMATCH'}")
    print(f"kernel-auto   : {result.seconds * 1e3:9.3f} ms "
          f"({result.n_dispatches} launches)")
    for name in ("serial", "vector"):
        t = SingleKernelSpMV(name, tuner.device).time(matrix)
        print(f"kernel-{name:7s}: {t * 1e3:9.3f} ms "
              f"({t / result.seconds:.2f}x vs auto)")
    t_ca = CSRAdaptiveSpMV(device=tuner.device).time(matrix)
    print(f"csr-adaptive  : {t_ca * 1e3:9.3f} ms "
          f"({t_ca / result.seconds:.2f}x vs auto)")
    return 0 if ok else 1


def _drive_demo_traffic(server: SpMVServer, args: argparse.Namespace) -> bool:
    """Run the demo workload against ``server``; True when all verified."""
    rng = np.random.default_rng(args.seed)
    families = sorted(_CLI_FAMILIES)
    matrices = [
        _CLI_FAMILIES[families[i % len(families)]](args.size, args.seed + i)
        for i in range(args.matrices)
    ]
    print(f"workload: {args.matrices} distinct matrices of ~{args.size} rows, "
          f"{args.requests} single + {args.batches} batched (k={args.batch}) "
          f"requests\n")
    ok = True
    singles = [
        (matrices[i % len(matrices)],
         rng.standard_normal(matrices[i % len(matrices)].ncols))
        for i in range(args.requests)
    ]
    if getattr(args, "coalesce", False):
        # Coalescing only wins on *concurrent* traffic: submit from a
        # thread pool so same-matrix requests land inside one window.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(16, len(singles) or 1)) \
                as pool:
            results = list(pool.map(
                lambda mx: (mx[0], mx[1], server.submit(mx[0], mx[1])),
                singles,
            ))
        for m, x, res in results:
            ok &= bool(np.allclose(res.y, m @ x, atol=1e-8))
    else:
        for m, x in singles:
            res = server.submit(m, x)
            ok &= bool(np.allclose(res.y, m @ x, atol=1e-8))
    for i in range(args.batches):
        m = matrices[i % len(matrices)]
        X = rng.standard_normal((m.ncols, args.batch))
        res = server.submit_batch(m, X)
        ok &= bool(np.allclose(res.y, m @ X, atol=1e-8))
    return ok


def _drive_tenant_traffic(server: SpMVServer, args: argparse.Namespace) -> bool:
    """Mixed-tenant traffic through the front door; True when verified.

    ``--tenants N`` latency tenants split ``--requests`` submissions
    evenly; a ``firehose`` batch tenant offers ``--requests`` more,
    scaled by ``--overload``.  The firehose is rate-limited and
    pending-bounded by the admission policy, so at overload its excess
    sheds (rate/queue) while the latency tenants keep being admitted --
    the per-tenant accounting below is the demo's point.
    """
    from repro.errors import (
        DeadlineExceededError,
        QueueFullError,
        TenantRateLimitError,
    )

    rng = np.random.default_rng(args.seed)
    families = sorted(_CLI_FAMILIES)
    matrices = [
        _CLI_FAMILIES[families[i % len(families)]](args.size, args.seed + i)
        for i in range(args.matrices)
    ]
    tenants = [f"tenant-{i}" for i in range(args.tenants)]
    n_fire = max(1, int(round(args.requests * args.overload)))
    print(f"workload: {args.requests} latency requests across "
          f"{len(tenants)} tenants + {n_fire} batch requests from "
          f"'firehose' ({args.overload:g}x intensity)\n")
    plan = [
        (tenants[i % len(tenants)], "latency", i)
        for i in range(args.requests)
    ] + [("firehose", "batch", i) for i in range(n_fire)]
    ok = True
    admitted = 0
    shed: dict = {}
    for tenant, priority, i in plan:
        m = matrices[i % len(matrices)]
        x = rng.standard_normal(m.ncols)
        try:
            res = server.submit(m, x, tenant=tenant, priority=priority)
        except (TenantRateLimitError, QueueFullError,
                DeadlineExceededError) as exc:
            reason = {"TenantRateLimitError": "rate",
                      "QueueFullError": "queue"}.get(
                type(exc).__name__, "deadline")
            shed[tenant, reason] = shed.get((tenant, reason), 0) + 1
            continue
        admitted += 1
        ok &= bool(np.allclose(res.y, m @ x, atol=1e-8))
    print(f"admitted: {admitted}/{len(plan)}")
    for (tenant, reason), n in sorted(shed.items()):
        print(f"  shed {tenant:12s} ({reason:8s}): {n}")
    if not shed:
        print("  no requests shed (try a higher --overload)")
    print()
    return ok


def _drive_solver_traffic(server: SpMVServer, args: argparse.Namespace) -> bool:
    """A CG solve as demo traffic: every iteration is a submit."""
    from repro.solvers import SolverSession, cg

    matrix = gen.spd_system(args.size, seed=args.seed)
    print(f"workload: CG solve on spd:{args.size} "
          f"(tolerance 1e-8, cap {args.requests} iterations)\n")
    b = np.random.default_rng(args.seed).standard_normal(matrix.ncols)
    session = SolverSession(
        matrix, server, slo=SLOTarget(p99=getattr(args, "slo_p99", 0.1)),
    )
    result = cg(session, b, tol=1e-8, max_iterations=args.requests)
    print(result.describe())
    print(session.stats().describe())
    print(session.monitor.describe())
    print()
    # Verify: the recursion residual must agree with the directly
    # recomputed one (catches corrupted iterates, e.g. under chaos).
    true_norm = float(np.linalg.norm(b - matrix @ result.x))
    drift = abs(true_norm - result.residual_norm)
    return bool(
        np.isfinite(result.x).all()
        and drift <= 1e-6 * (1.0 + float(np.linalg.norm(b)))
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    """Run one iterative solve end to end through the serving layer."""
    from repro.solvers import SOLVERS, SolverSession

    matrix = load_matrix(args.matrix, seed=args.seed)
    print(f"matrix: {matrix}")
    m, n = matrix.shape
    if m != n:
        raise SystemExit(f"solvers need a square matrix, got {m}x{n}")
    server = _build_demo_server(args)
    session = SolverSession(
        matrix, server, slo=SLOTarget(p99=args.slo_p99),
    )
    try:
        if args.method == "power":
            result = SOLVERS["power"](
                session, tol=args.tol,
                max_iterations=args.max_iterations, seed=args.seed,
            )
        else:
            b = np.random.default_rng(args.seed).standard_normal(n)
            result = SOLVERS[args.method](
                session, b, tol=args.tol,
                max_iterations=args.max_iterations,
            )
    finally:
        server.close()
    print()
    print(result.describe())
    print(session.stats().describe())
    print(session.monitor.describe())
    if isinstance(server.device, ChaosDevice):
        counts = server.device.injected_counts()
        print(f"faults injected    : {sum(counts.values())}")
    if args.method != "power":
        true_norm = float(np.linalg.norm(b - matrix @ result.x))
        drift = abs(true_norm - result.residual_norm)
        ok = drift <= 1e-6 * (1.0 + float(np.linalg.norm(b)))
        print(f"residual verified  : "
              f"{'OK' if ok else 'MISMATCH'} (direct {true_norm:.3e})")
        if not ok:
            return 1
    return 0 if result.converged else 1


def _build_demo_server(args: argparse.Namespace) -> SpMVServer:
    device = resilience = None
    if getattr(args, "chaos", False):
        seed = args.chaos_seed if args.chaos_seed is not None else args.seed
        device = ChaosDevice(
            SimulatedDevice(),
            FaultSchedule(rate=args.chaos_rate, seed=seed),
        )
        # Tight backoffs keep the demo snappy; the structure (retries,
        # breaker, fallback) is what the run demonstrates.
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, backoff_base=1e-4,
                              backoff_max=1e-2),
        )
        print(f"chaos: injecting faults at rate {args.chaos_rate:.0%} "
              f"(seed {seed}), resilience enabled")
    tuner = None
    if args.model:
        tuner = AutoTuner.load(args.model)
        print(f"serving with tuner {args.model}")
    else:
        print("serving with the heuristic planner (no --model given)")
    sharding = None
    n_shards = getattr(args, "shards", 0)
    if n_shards:
        strategy = PartitionStrategy(getattr(args, "shard_strategy", "nnz"))
        backend = getattr(args, "backend", "inline")
        sharding = ShardingPolicy(
            n_shards=n_shards, strategy=strategy, backend=backend,
        )
        print(f"sharding: {n_shards} shards, {strategy.value}-balanced, "
              f"{sharding.backend.value} backend")
    elif getattr(args, "backend", "inline") != "inline":
        print(f"note: --backend {args.backend} has no effect without --shards")
    scheduler = None
    if getattr(args, "coalesce", False):
        scheduler = CoalescePolicy(
            max_batch=getattr(args, "coalesce_width", 8),
            max_wait_seconds=getattr(args, "coalesce_window", 0.005),
        )
        print(f"coalescing: width <= {scheduler.max_batch}, "
              f"window {scheduler.max_wait_seconds * 1e3:.1f} ms")
    bundle_dir = getattr(args, "bundle_dir", None)
    tracing = None
    if (getattr(args, "trace", False) or getattr(args, "trace_out", None)
            or bundle_dir):
        # --bundle-dir implies tracing: exemplars need trace ids and a
        # bundle without its trace export cannot cross-check them.
        slo_p99 = getattr(args, "slo_p99", 0.1)
        tracing = TracingPolicy(slo=SLOTarget(p99=slo_p99))
        print(f"tracing: on (ring capacity {tracing.recorder_capacity}, "
              f"SLO p99 <= {slo_p99 * 1e3:.1f} ms)")
    blackbox = None
    if bundle_dir:
        from repro.blackbox import BlackboxPolicy

        # A short rate-limit interval keeps the demo responsive; a
        # production deployment would leave the 30 s default.
        blackbox = BlackboxPolicy(
            bundle_dir=bundle_dir, min_bundle_interval_seconds=1.0,
        )
        print(f"blackbox: flight recorder on (capacity "
              f"{blackbox.flight_capacity}), debug bundles -> {bundle_dir}")
    admission = None
    if getattr(args, "tenants", 0):
        # The firehose's burst covers exactly the 1x offered load, so
        # --overload 1 admits everything and --overload 2 sheds ~half
        # of the batch traffic while latency tenants stay unlimited.
        burst = float(max(1, getattr(args, "requests", 16)))
        admission = AdmissionPolicy(
            burst=max(burst, 64.0),
            tenants={
                "firehose": TenantConfig(
                    priority="batch", rate=50.0, burst=burst,
                    max_pending=32,
                ),
            },
            aging_seconds=0.05,
        )
        print(f"admission: {args.tenants} latency tenants + 'firehose' "
              f"batch tenant (50/s, burst {burst:g}, <=32 pending)")
    elif getattr(args, "overload", 1.0) != 1.0:
        print("note: --overload has no effect without --tenants")
    learning = None
    if getattr(args, "learn", False):
        learning = LearningPolicy(
            epsilon=getattr(args, "explore", 0.1),
            max_explore_fraction=getattr(args, "explore_budget", 0.2),
            seed=args.seed,
        )
        n_arms = 1 + len(learning.granularities) * len(learning.kernel_names)
        print(f"online learning: epsilon {learning.epsilon:g}, budget "
              f"{learning.max_explore_fraction:.0%} global / "
              f"{learning.max_explore_per_key} per key, {n_arms} arms")
    return SpMVServer(
        tuner,
        device=device,
        cache_capacity=args.cache_capacity,
        resilience=resilience,
        sharding=sharding,
        scheduler=scheduler,
        tracing=tracing,
        admission=admission,
        learning=learning,
        blackbox=blackbox,
    )


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    """Simulate repeated + batched traffic against one server instance."""
    registry = previous = None
    if getattr(args, "metrics", False) or getattr(args, "bundle_dir", None):
        # A fresh registry per run: with --bundle-dir, the bundles'
        # metric snapshots (and their exemplar trace ids) must describe
        # *this* server, not whatever the process-global registry
        # accumulated before.
        registry = MetricsRegistry()
        previous = set_registry(registry)
    try:
        server = _build_demo_server(args)
        if getattr(args, "workload", "mixed") == "solver":
            ok = _drive_solver_traffic(server, args)
        elif getattr(args, "tenants", 0):
            ok = _drive_tenant_traffic(server, args)
        else:
            ok = _drive_demo_traffic(server, args)
        server.close()  # drain the scheduler so the stats are final
    finally:
        if registry is not None:
            set_registry(previous)
    print(server.stats().describe())
    if isinstance(server.device, ChaosDevice):
        counts = server.device.injected_counts()
        injected = ", ".join(
            f"{kind}={n}" for kind, n in sorted(counts.items())
        ) or "none"
        print(f"faults injected    : {sum(counts.values())} ({injected})")
    if registry is not None and getattr(args, "metrics", False):
        print("\n--- metrics (prometheus) ---")
        print(to_prometheus_text(registry), end="")
    if server.trace_recorder is not None:
        _report_traces(server, getattr(args, "trace_out", None))
    if server.blackbox is not None:
        bb = server.blackbox.stats()
        triggers = ", ".join(
            f"{reason}={n}" for reason, n in sorted(bb.triggers.items())
        ) or "none"
        print(f"\nblackbox: {bb.bundles_written} bundle(s) written, "
              f"{bb.bundles_suppressed} suppressed (triggers: {triggers})")
        if bb.last_bundle is not None:
            print(f"  latest: {bb.last_bundle}")
            print(f"  inspect with: python -m repro doctor "
                  f"{getattr(args, 'bundle_dir', bb.last_bundle)}")
    print(f"\nall results verified: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _report_traces(server: SpMVServer, trace_out: Optional[str]) -> None:
    """Print the trace/SLO summary for a traced demo run."""
    rec = server.trace_recorder
    tids = rec.trace_ids()
    print(f"\n--- traces ({len(tids)} recorded, {rec.dropped} "
          f"dropped by the ring) ---")
    request_roots = [r for r in rec.roots() if r.name == "serve.request"]
    if request_roots:
        print("sample request timeline (last request):\n")
        print(rec.timeline(request_roots[-1].trace_id))
    _print_slo_health(server)
    if trace_out:
        Path(trace_out).write_text(rec.chrome_trace_json(indent=2))
        print(f"Chrome trace written to {trace_out} "
              f"(load via chrome://tracing or https://ui.perfetto.dev)")


def _print_slo_health(server: SpMVServer) -> None:
    """Print the SLO health snapshot, shared by ``serve-demo``/``metrics``.

    Every tracing server now carries per-class monitors (they were
    previously admission-only), so the per-class lines appear whenever
    tracing is on -- with or without ``--tenants``.
    """
    health = server.health_snapshot()
    quantiles = ", ".join(
        f"{q}={v * 1e3:.3f} ms" for q, v in health["quantiles"].items()
        if v == v  # skip NaN before any observation
    )
    breaches = ", ".join(
        f"{q}={n}" for q, n in sorted(health["breaches"].items())
    ) or "none"
    print(f"\nSLO health: {health['status']} "
          f"(window of {health['observed']}: {quantiles}; "
          f"breaches: {breaches})")
    for priority, cls in sorted(health.get("classes", {}).items()):
        print(f"  class {priority:8s}: {cls['status']} "
              f"(window of {cls['observed']})")


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Demo run under a fresh registry; dump Prometheus + JSON snapshots.

    The registry is installed as the process-global default *before* the
    server/device are built (they bind it at construction), and a
    recording sink captures structured events (cache evictions,
    overflow-bin hits, planner fallbacks).
    """
    registry = MetricsRegistry()
    sink = RecordingSink()
    registry.add_event_sink(sink)
    previous = set_registry(registry)
    try:
        server = _build_demo_server(args)
        ok = _drive_demo_traffic(server, args)
    finally:
        set_registry(previous)
    print(server.stats().describe())
    if server.trace_recorder is not None:
        _print_slo_health(server)
    if args.format in ("prometheus", "both"):
        print("\n--- metrics (prometheus) ---")
        print(to_prometheus_text(registry), end="")
    if args.format in ("json", "both"):
        print("\n--- metrics (json) ---")
        print(to_json(registry, indent=2))
    if sink.events:
        print(f"\n--- events ({len(sink.events)}) ---")
        for event in sink.events:
            print(f"  {event}")
    print(f"\nall results verified: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Load a debug bundle and render the incident report.

    Accepts either a bundle directory itself (``bundle-0003-slo_breach``)
    or a ``--bundle-dir`` output directory, in which case the *latest*
    complete bundle is diagnosed and the older siblings are listed for
    context.  Corrupt or partial bundles turn into a readable error on
    stderr (exit 1), never a traceback.
    """
    from repro.blackbox import (
        BundleError,
        find_bundles,
        load_bundle,
        render_report,
    )

    root = Path(args.bundle)
    try:
        if (root / "manifest.json").is_file():
            bundle = load_bundle(root)
            siblings = find_bundles(root.parent)
        elif root.is_dir():
            bundles = find_bundles(root)
            if not bundles:
                print(f"doctor: no complete debug bundles under {root}",
                      file=sys.stderr)
                return 1
            bundle = load_bundle(bundles[-1])
            siblings = bundles
            if len(bundles) > 1:
                print(f"({len(bundles)} bundles found; diagnosing the "
                      f"latest, {bundles[-1].name})\n")
        else:
            print(f"doctor: {root} is not a bundle or bundle directory",
                  file=sys.stderr)
            return 1
        print(render_report(bundle, siblings=siblings))
    except BundleError as exc:
        print(f"doctor: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Kernel-level profile of a matrix's plan on the analytical device.

    Default: profile the launches the plan would actually make (per-bin
    kernel, lane occupancy, memory/compute split, roofline efficiency).
    ``--sweep`` instead costs *every* (granularity, bin, kernel)
    combination -- the exhaustive view behind the paper's tuning tables.
    """
    from repro.serve.server import heuristic_planner

    matrix = load_matrix(args.matrix, seed=args.seed)
    print(f"matrix: {matrix}")
    profiler = KernelProfiler()
    if args.sweep:
        report = profiler.sweep(matrix)
    else:
        if args.model:
            plan = AutoTuner.load(args.model).plan(matrix)
        else:
            plan = heuristic_planner(matrix)
        print(f"plan: {plan.scheme.name}")
        report = profiler.profile_plan(matrix, plan)
    print(report.describe())
    if args.out:
        import json as _json

        Path(args.out).write_text(_json.dumps(report.as_dict(), indent=2))
        print(f"profile written to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    spec = DeviceSpec.kaveri_apu()
    print(f"simulated device: {spec.name}")
    print(f"  compute units        : {spec.num_cus}")
    print(f"  wavefront / workgroup: {spec.wavefront_size} / "
          f"{spec.workgroup_size}")
    print(f"  clock                : {spec.clock_hz / 1e6:.0f} MHz")
    print(f"  DRAM bandwidth       : {spec.mem_bandwidth_bytes / 1e9:.1f} GB/s")
    print(f"  LDS per CU           : {spec.lds_bytes_per_cu // 1024} KB")
    print(f"kernel pool ({len(DEFAULT_KERNEL_NAMES)}): "
          f"{', '.join(DEFAULT_KERNEL_NAMES)}")
    print(f"synthetic families: {', '.join(sorted(_CLI_FAMILIES))}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-tuned CSR SpMV (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and save a tuner")
    p_train.add_argument("--matrices", type=int, default=150,
                         help="synthetic corpus size (default 150)")
    p_train.add_argument("--mtx-dir", default=None,
                         help="train on Matrix Market files in this dir")
    p_train.add_argument("--out", required=True, help="output JSON path")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--classifier", choices=("tree", "boosted"),
                         default="boosted")
    p_train.add_argument("--extended-features", action="store_true")
    p_train.add_argument("--no-single-bin", action="store_true",
                         help="strictly-paper tuning space")
    p_train.set_defaults(func=_cmd_train)

    p_plan = sub.add_parser("plan", help="print the plan for a matrix")
    p_plan.add_argument("--model", required=True)
    p_plan.add_argument("--matrix", required=True,
                        help=".mtx path or family:nrows")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--oracle", action="store_true",
                        help="also run the exhaustive search")
    p_plan.set_defaults(func=_cmd_plan)

    p_run = sub.add_parser("run", help="plan + execute + compare baselines")
    p_run.add_argument("--model", required=True)
    p_run.add_argument("--matrix", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve-demo",
        help="drive an SpMVServer with repeated + batched traffic",
    )
    p_serve.add_argument("--model", default=None,
                         help="trained tuner JSON (heuristic planner if "
                              "omitted)")
    p_serve.add_argument("--matrices", type=int, default=4,
                         help="distinct sparsity patterns in the workload")
    p_serve.add_argument("--size", type=int, default=2000,
                         help="rows per synthetic matrix")
    p_serve.add_argument("--requests", type=int, default=16,
                         help="single-RHS submissions")
    p_serve.add_argument("--batches", type=int, default=2,
                         help="batched submissions")
    p_serve.add_argument("--batch", type=int, default=8,
                         help="right-hand sides per batched submission")
    p_serve.add_argument("--cache-capacity", type=int, default=32)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--metrics", action="store_true",
                         help="also dump the metrics registry "
                              "(Prometheus text) after the run")
    p_serve.add_argument("--chaos", action="store_true",
                         help="inject seeded faults into the device and "
                              "serve through the resilience layer "
                              "(retries, breaker, serial fallback)")
    p_serve.add_argument("--chaos-rate", type=float, default=0.1,
                         help="per-execution fault probability "
                              "(default 0.1)")
    p_serve.add_argument("--chaos-seed", type=int, default=None,
                         help="fault-schedule seed (defaults to --seed)")
    p_serve.add_argument("--shards", type=int, default=0,
                         help="shard each matrix across this many "
                              "concurrent devices (0 = unsharded)")
    p_serve.add_argument("--shard-strategy", choices=("rows", "nnz"),
                         default="nnz",
                         help="row-shard balancing: equal rows or "
                              "equal non-zeros (default nnz)")
    p_serve.add_argument("--backend", choices=("inline", "process"),
                         default="inline",
                         help="shard execution backend: inline (sequential "
                              "on the caller thread; default) or process "
                              "(worker pool over shared-memory row-blocks)")
    p_serve.add_argument("--coalesce", action="store_true",
                         help="coalesce concurrent same-matrix submits "
                              "into one multi-RHS dispatch")
    p_serve.add_argument("--coalesce-width", type=int, default=8,
                         help="max requests per coalesced dispatch "
                              "(default 8)")
    p_serve.add_argument("--coalesce-window", type=float, default=0.005,
                         help="seconds a request waits for siblings "
                              "before dispatching anyway (default 0.005)")
    p_serve.add_argument("--trace", action="store_true",
                         help="record a distributed trace per request and "
                              "print a sample timeline + SLO health")
    p_serve.add_argument("--trace-out", default=None,
                         help="write the Chrome trace-event JSON here "
                              "(implies --trace)")
    p_serve.add_argument("--slo-p99", type=float, default=0.1,
                         help="p99 latency objective in seconds for the "
                              "SLO monitor (default 0.1)")
    p_serve.add_argument("--tenants", type=int, default=0,
                         help="serve mixed-tenant traffic through the "
                              "admission front door: this many latency "
                              "tenants plus one rate-limited 'firehose' "
                              "batch tenant (0 = no admission control)")
    p_serve.add_argument("--overload", type=float, default=1.0,
                         help="scale the firehose tenant's offered load "
                              "by this factor (with --tenants; >1 "
                              "demonstrates rate/queue shedding)")
    p_serve.add_argument("--learn", action="store_true",
                         help="wrap the planner in the online selector: "
                              "seed bandit priors from the tree, explore "
                              "alternative (kernel, U) arms under a "
                              "budget, and report pulls/regret")
    p_serve.add_argument("--explore", type=float, default=0.1,
                         help="exploration rate epsilon for --learn "
                              "(default 0.1; 0 reproduces the static "
                              "tree exactly)")
    p_serve.add_argument("--explore-budget", type=float, default=0.2,
                         help="global cap on the fraction of decisions "
                              "that may explore (default 0.2)")
    p_serve.add_argument("--bundle-dir", default=None,
                         help="fly the incident flight recorder and "
                              "auto-write triggered debug bundles into "
                              "this directory (implies --trace); inspect "
                              "them with 'repro doctor'")
    p_serve.add_argument("--workload", choices=("mixed", "solver"),
                         default="mixed",
                         help="demo traffic: 'mixed' (repeated + batched "
                              "requests, default) or 'solver' (a CG solve "
                              "on an SPD system; --requests caps the "
                              "iterations)")
    p_serve.set_defaults(func=_cmd_serve_demo)

    p_solve = sub.add_parser(
        "solve",
        help="run an iterative solver end to end through the server",
    )
    p_solve.add_argument("--method",
                         choices=("cg", "bicgstab", "jacobi", "power"),
                         default="cg",
                         help="cg (SPD), bicgstab (general), jacobi "
                              "(diagonally dominant), or power "
                              "(dominant eigenpair; no rhs)")
    p_solve.add_argument("--matrix", default="spd:1000",
                         help=".mtx path or family:nrows "
                              "(default spd:1000; must be square)")
    p_solve.add_argument("--tol", type=float, default=1e-8,
                         help="relative residual tolerance (default 1e-8)")
    p_solve.add_argument("--max-iterations", type=int, default=500)
    p_solve.add_argument("--model", default=None,
                         help="trained tuner JSON (heuristic planner if "
                              "omitted)")
    p_solve.add_argument("--cache-capacity", type=int, default=32)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--shards", type=int, default=0,
                         help="shard the matrix across this many "
                              "concurrent devices (0 = unsharded)")
    p_solve.add_argument("--shard-strategy", choices=("rows", "nnz"),
                         default="nnz")
    p_solve.add_argument("--backend", choices=("inline", "process"),
                         default="inline",
                         help="shard execution backend (with --shards)")
    p_solve.add_argument("--chaos", action="store_true",
                         help="inject seeded faults mid-solve and serve "
                              "through the resilience layer")
    p_solve.add_argument("--chaos-rate", type=float, default=0.1)
    p_solve.add_argument("--chaos-seed", type=int, default=None)
    p_solve.add_argument("--slo-p99", type=float, default=0.1,
                         help="per-iteration p99 objective in seconds "
                              "(default 0.1)")
    p_solve.set_defaults(func=_cmd_solve)

    p_metrics = sub.add_parser(
        "metrics",
        help="demo run under a fresh registry; dump metric snapshots",
    )
    p_metrics.add_argument("--model", default=None,
                           help="trained tuner JSON (heuristic planner if "
                                "omitted)")
    p_metrics.add_argument("--matrices", type=int, default=4,
                           help="distinct sparsity patterns in the workload")
    p_metrics.add_argument("--size", type=int, default=2000,
                           help="rows per synthetic matrix")
    p_metrics.add_argument("--requests", type=int, default=16,
                           help="single-RHS submissions")
    p_metrics.add_argument("--batches", type=int, default=2,
                           help="batched submissions")
    p_metrics.add_argument("--batch", type=int, default=8,
                           help="right-hand sides per batched submission")
    p_metrics.add_argument("--cache-capacity", type=int, default=32)
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--trace", action="store_true",
                           help="also trace the demo traffic and print "
                                "the SLO health snapshot (overall + "
                                "per-priority-class monitors)")
    p_metrics.add_argument("--slo-p99", type=float, default=0.1,
                           help="p99 latency objective in seconds for "
                                "the SLO monitor (with --trace; "
                                "default 0.1)")
    p_metrics.add_argument("--format",
                           choices=("prometheus", "json", "both"),
                           default="both",
                           help="which snapshot(s) to print (default both)")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_doctor = sub.add_parser(
        "doctor",
        help="render the incident report for a debug bundle "
             "(or the latest bundle in a --bundle-dir directory)",
    )
    p_doctor.add_argument("bundle",
                          help="a bundle directory, or a serve-demo "
                               "--bundle-dir output directory (the latest "
                               "complete bundle is diagnosed)")
    p_doctor.set_defaults(func=_cmd_doctor)

    p_trace = sub.add_parser(
        "trace",
        help="kernel-level profile of a matrix's plan (or a full "
             "(U, bin, kernel) sweep) on the analytical device",
    )
    p_trace.add_argument("--matrix", required=True,
                         help=".mtx path or family:nrows")
    p_trace.add_argument("--model", default=None,
                         help="trained tuner JSON (heuristic planner if "
                              "omitted)")
    p_trace.add_argument("--sweep", action="store_true",
                         help="profile every (granularity, bin, kernel) "
                              "combination instead of the plan's launches")
    p_trace.add_argument("--out", default=None,
                         help="also write the profile as JSON here")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=_cmd_trace)

    p_info = sub.add_parser("info", help="device + kernel pool summary")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
