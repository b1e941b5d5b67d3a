"""Differential: every serving path against a term-by-term re-derivation.

The executors price a plan (gather locality, per-dispatch cost, launch
and binning overhead) and run its kernels.  This module re-derives both
halves inside the test, from the public building blocks only --
``Kernel.cost`` -> ``_scale_stats_for_rhs`` -> ``dispatch_seconds`` plus
launch cycles and ``overhead_seconds`` for the seconds, ``Kernel.compute``
and the batched gather + ``reduceat`` for the result -- and pins every
path to it: bit-identical ``y`` and equal ``repr`` of every simulated
time it surfaces.

Paths: the device (``run_plan_spmv``/``run_plan_spmm``), the plain
server, the resilient server, the inline-sharded server and the
process-sharded server (plus the process backend's raw run reports).
Swept over every generator family, the binning schemes single, coarse
U in {10, 1000}, fine, hybrid and adaptive-rows, SpMV and SpMM with
k in {1, 3, 8}, with and without a ``max_rhs`` split.

Beside the sweep: SpMM columns against SpMV on rows long enough for
pairwise summation, a cached bound plan serving new values, and edge
structures (no rows, empty rows, permuted launches).  The tuner's
``predicted_seconds`` is pinned to the same term-by-term pricing over
the benchmark's ``tenant_mix`` structures, the training corpus and the
representative matrices, and a tuned plan run on another structure of
its size must price and compute for that structure.
"""

import copy
import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from repro import AutoTuner
from repro.binning import (
    BinningResult,
    CoarseBinning,
    FineBinning,
    HybridBinning,
    RowBlockBinning,
    SingleBinning,
)
from repro.core.plan import ExecutionPlan
from repro.device import SimulatedDevice
from repro.device.dispatch import dispatch_seconds
from repro.device.executor import _scale_stats_for_rhs
from repro.device.memory import effective_gather_locality
from repro.device.spec import DeviceSpec
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.kernels import DEFAULT_KERNEL_NAMES, get_kernel
from repro.kernels.base import row_products_batch
from repro.matrices import (
    REPRESENTATIVE_NAMES,
    generate_collection,
    representative_matrix,
)
from repro.matrices import generators as gen
from repro.resilient import ResiliencePolicy, RetryPolicy
from repro.serve import SpMVServer, fingerprint_matrix, run_plan_spmm, run_plan_spmv
from repro.shard import ShardingPolicy
from repro.shard.partition import make_shards
from repro.utils.primitives import segmented_sum_2d

from tests.differential import (
    make_rhs,
    make_rhs_block,
    reference_spmm,
    reference_spmv,
)

pytestmark = pytest.mark.differential

#: One small seeded instance of every generator family.
FAMILIES = {
    "banded": lambda: gen.banded(300, seed=1),
    "fem_constrained": lambda: gen.fem_constrained(300, seed=2),
    "stencil_2d": lambda: gen.stencil_2d(17, 17),
    "mesh_dual": lambda: gen.mesh_dual(300, seed=3),
    "power_law_graph": lambda: gen.power_law_graph(400, seed=4),
    "road_network": lambda: gen.road_network(300, seed=5),
    "combinatorial_incidence": lambda: gen.combinatorial_incidence(
        300, 250, seed=6),
    "cfd_like": lambda: gen.cfd_like(300, seed=7),
    "quantum_chemistry_like": lambda: gen.quantum_chemistry_like(
        200, seed=8),
    "random_uniform": lambda: gen.random_uniform(300, 300, density=0.02,
                                                 seed=9),
    "bimodal_rows": lambda: gen.bimodal_rows(300, seed=10),
    "dense_row_outliers": lambda: gen.dense_row_outliers(300, seed=11),
    "single_entry_rows": lambda: gen.single_entry_rows(300, seed=12),
    "spd_system": lambda: gen.spd_system(300, seed=13),
}

SCHEMES = {
    "single": SingleBinning(),
    "coarse10": CoarseBinning(10),
    "coarse1000": CoarseBinning(1000),
    "fine": FineBinning(),
    "hybrid": HybridBinning(),
    "adaptive_rows": RowBlockBinning(),
}

#: ``(k, max_rhs)`` per operation; ``k=None`` is SpMV.  With ``max_rhs=2``
#: k=3 and k=8 split into column blocks, k=1 does not.
OPS = [(None, None)] + [(k, m) for k in (1, 3, 8) for m in (None, 2)]

N_SHARDS = 3


def _plan(matrix, scheme) -> ExecutionPlan:
    """Deterministic plan: ``scheme``'s bins, kernels cycled over bins."""
    binning = scheme.bin_rows(matrix)
    return ExecutionPlan(
        scheme=scheme,
        binning=binning,
        bin_kernels={
            b: DEFAULT_KERNEL_NAMES[i % len(DEFAULT_KERNEL_NAMES)]
            for i, (b, _) in enumerate(binning.non_empty())
        },
        source="test",
    )


def _derive(matrix, plan, rhs, spec, max_rhs=None):
    """``(y, seconds, dispatch_seconds, launch_seconds, n_passes)``."""
    lengths = matrix.row_lengths()
    g = effective_gather_locality(matrix, spec)
    overhead = plan.scheme.overhead_seconds(matrix, spec)
    per_launch = spec.seconds(spec.kernel_launch_cycles)
    dispatches = [
        (kernel, np.asarray(rows, dtype=np.int64))
        for kernel, rows in plan.dispatches() if len(rows)
    ]
    launch_s = len(dispatches) * per_launch

    def times(k):
        return tuple(
            dispatch_seconds(
                _scale_stats_for_rhs(kernel.cost(lengths[rows], g, spec), k),
                spec,
            )
            for kernel, rows in dispatches
        )

    if rhs.ndim == 1:
        y = np.zeros(matrix.nrows)
        for kernel, rows in dispatches:
            y[rows] = kernel.compute(matrix, rhs, rows)
        t = times(1)
        return y, float(sum(t) + launch_s + overhead), t, launch_s, 1
    k = rhs.shape[1]
    split = max_rhs is not None and k > max_rhs
    width = max_rhs if split else k
    blocks = [(lo, min(lo + width, k)) for lo in range(0, k, width)]
    y = np.zeros((matrix.nrows, k))
    for lo, hi in blocks:
        for _kernel, rows in dispatches:
            products, offsets = row_products_batch(matrix, rhs[:, lo:hi], rows)
            y[rows, lo:hi] = segmented_sum_2d(products, offsets)
    if not split:
        t = times(k)
        return y, float(sum(t) + launch_s + overhead), t, launch_s, 1
    seconds, all_t, launch_total = overhead, [], 0.0
    for lo, hi in blocks:
        t = times(hi - lo)
        seconds += float(sum(t) + launch_s)
        all_t.extend(t)
        launch_total += launch_s
    return y, float(seconds), tuple(all_t), launch_total, len(blocks)


def _derive_sharded(matrix, scheme, rhs, spec, max_rhs):
    """Per-shard derivations gathered the way the sharded executor does."""
    y = np.zeros((matrix.nrows,) + rhs.shape[1:])
    shard_seconds, n_dispatches = [], 0
    for shard in make_shards(matrix, N_SHARDS, ShardingPolicy().strategy):
        d = shard.descriptor
        plan = _plan(shard.matrix, scheme)
        sy, seconds, times, _, _ = _derive(shard.matrix, plan, rhs, spec,
                                           max_rhs)
        y[d.row_lo:d.row_hi] = sy
        shard_seconds.append(seconds)
        n_dispatches += len(times)
    return (y, float(max(shard_seconds, default=0.0)), tuple(shard_seconds),
            n_dispatches, len(shard_seconds))


@lru_cache(maxsize=None)
def _matrix(family):
    return FAMILIES[family]()


@lru_cache(maxsize=None)
def _rhs(family, k):
    matrix = _matrix(family)
    return make_rhs(matrix, seed=7) if k is None else make_rhs_block(
        matrix, k, seed=7)


@lru_cache(maxsize=None)
def _expected(family, scheme_name, k, max_rhs, sharded):
    """Memoised derivation (shared by every path of one sweep cell)."""
    matrix, scheme = _matrix(family), SCHEMES[scheme_name]
    spec, rhs = DeviceSpec.kaveri_apu(), _rhs(family, k)
    if sharded:
        return _derive_sharded(matrix, scheme, rhs, spec, max_rhs)
    return _derive(matrix, _plan(matrix, scheme), rhs, spec, max_rhs)


def _same(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Servers: one per (path, max_rhs), planning with a switchable scheme.
# ---------------------------------------------------------------------------

class _SchemePlanner:
    """Planner whose scheme the test switches (with a cache clear)."""

    def __init__(self):
        self.scheme = SingleBinning()

    def __call__(self, matrix):
        return _plan(matrix, self.scheme)


PATHS = ("plain", "resilient", "sharded_inline", "process")


def _server(path, planner, max_rhs):
    kwargs = {"planner": planner, "max_rhs": max_rhs}
    if path == "resilient":
        kwargs["resilience"] = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base=1e-6,
                              backoff_max=1e-5))
    elif path == "sharded_inline":
        kwargs["sharding"] = ShardingPolicy(n_shards=N_SHARDS,
                                            backend="inline")
    elif path == "process":
        kwargs["sharding"] = ShardingPolicy(n_shards=N_SHARDS,
                                            backend="process",
                                            process_workers=2)
    return SpMVServer(**kwargs)


@pytest.fixture(scope="module")
def servers():
    planner = _SchemePlanner()
    built = {}

    def get(path, max_rhs):
        key = (path, max_rhs)
        if key not in built:
            built[key] = _server(path, planner, max_rhs)
        return built[key]

    yield planner, get
    for server in built.values():
        server.close()


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", list(FAMILIES))
def test_device_path_matches_derivation(family):
    matrix = _matrix(family)
    device = SimulatedDevice()
    for scheme_name, scheme in SCHEMES.items():
        plan = _plan(matrix, scheme)
        for k, max_rhs in OPS:
            rhs = _rhs(family, k)
            y, seconds, times, launch_s, n_passes = _expected(
                family, scheme_name, k, max_rhs, False)
            if k is None:
                res = run_plan_spmv(device, matrix, rhs, plan)
                got_y, got_passes = res.u, 1
            else:
                res = run_plan_spmm(device, matrix, rhs, plan,
                                    max_rhs=max_rhs)
                got_y, got_passes = res.U, res.n_passes
            label = f"{family}/{scheme_name}/k={k}/max_rhs={max_rhs}"
            _same(got_y, y)
            assert repr(res.seconds) == repr(seconds), label
            assert repr(res.dispatch_seconds) == repr(times), label
            assert repr(res.launch_seconds) == repr(launch_s), label
            assert got_passes == n_passes, label


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("path", PATHS)
def test_server_path_matches_derivation(servers, path, family):
    planner, get = servers
    matrix = _matrix(family)
    sharded = path in ("sharded_inline", "process")
    for scheme_name, scheme in SCHEMES.items():
        planner.scheme = scheme
        for max_rhs in (None, 2):
            get(path, max_rhs).clear_cache()
        for k, max_rhs in OPS:
            server = get(path, max_rhs)
            rhs = _rhs(family, k)
            # Twice: the first request plans (and binds), the second is
            # served from the plan cache.
            for _ in range(2):
                res = (server.submit(matrix, rhs) if k is None
                       else server.submit_batch(matrix, rhs))
                label = f"{path}/{family}/{scheme_name}/k={k}/{max_rhs}"
                assert not res.degraded, label
                want = _expected(family, scheme_name, k, max_rhs, sharded)
                if sharded:
                    y, seconds, shard_seconds, n_disp, n_shards = want
                    assert repr(res.shards.shard_seconds) == \
                        repr(shard_seconds), label
                    assert res.attempts == n_shards, label
                else:
                    y, seconds, times, _, _ = want
                    n_disp = len(times)
                    assert res.attempts == 1, label
                _same(res.y, y)
                assert repr(res.seconds) == repr(seconds), label
                assert res.n_dispatches == n_disp, label


@pytest.mark.parametrize("family", ["power_law_graph", "dense_row_outliers",
                                    "stencil_2d"])
def test_process_run_reports_match_derivation(servers, family):
    """The worker's raw report fields, shard by shard."""
    planner, get = servers
    matrix = _matrix(family)
    spec = DeviceSpec.kaveri_apu()
    server = get("process", None)
    executor = server._sharded
    digest = fingerprint_matrix(matrix).digest
    shards = make_shards(matrix, N_SHARDS, ShardingPolicy().strategy)
    for scheme_name, scheme in SCHEMES.items():
        planner.scheme = scheme
        server.clear_cache()
        descriptors, fps = executor._shard_set_for(matrix, digest)
        plans, _ = executor._plan_shards(matrix, descriptors, fps)
        for k, max_rhs in OPS:
            rhs = _rhs(family, k)
            reports = executor.backend.execute(
                matrix, digest, descriptors, plans, rhs,
                max_rhs=max_rhs,
            )
            for shard, report in zip(shards, reports):
                y, seconds, times, launch_s, n_passes = _derive(
                    shard.matrix, _plan(shard.matrix, scheme), rhs, spec,
                    max_rhs)
                label = f"{family}/{scheme_name}/k={k}/{max_rhs}"
                _same(report.y, y)
                assert repr(report.seconds) == repr(seconds), label
                assert repr(report.dispatch_seconds) == repr(times), label
                assert repr(report.launch_seconds) == repr(launch_s), label
                assert report.n_passes == n_passes, label


# ---------------------------------------------------------------------------
# Binding edge cases
# ---------------------------------------------------------------------------

def test_malformed_plan_raises_on_first_submit():
    matrix = gen.banded(50, seed=0)

    def bad_planner(m):
        rows = np.arange(m.nrows - 1, dtype=np.int64)  # last row missing
        return ExecutionPlan(
            scheme=SingleBinning(),
            binning=BinningResult("bad", (rows,), ("all",)),
            bin_kernels={0: "serial"},
            source="test",
        )

    with SpMVServer(planner=bad_planner) as server:
        x = make_rhs(matrix, seed=0)
        with pytest.raises(DeviceError):
            server.submit(matrix, x)
        # The cached plan is still malformed: never served silently.
        with pytest.raises(DeviceError):
            server.submit(matrix, x)
        with pytest.raises(DeviceError):
            server.submit_batch(matrix, make_rhs_block(matrix, 2, seed=0))


def test_invalidate_rebinds_under_kernel_switching_planner():
    matrix = gen.power_law_graph(600, seed=2)
    calls = []
    kernels = (DEFAULT_KERNEL_NAMES[0], DEFAULT_KERNEL_NAMES[4])

    def switching_planner(m):
        calls.append(1)
        kernel = kernels[(len(calls) - 1) % 2]
        binning = SingleBinning().bin_rows(m)
        return ExecutionPlan(
            scheme=SingleBinning(),
            binning=binning,
            bin_kernels={b: kernel for b, _ in binning.non_empty()},
            source="test",
        )

    x = make_rhs(matrix, seed=1)
    spec = DeviceSpec.kaveri_apu()
    with SpMVServer(planner=switching_planner) as server:
        first = server.submit(matrix, x)
        again = server.submit(matrix, x)
        assert again.cache_hit and repr(again.seconds) == repr(first.seconds)
        assert server.invalidate(matrix)
        after = server.submit(matrix, x)
    assert len(calls) == 2
    assert after.plan.bin_kernels != first.plan.bin_kernels
    assert after.seconds != first.seconds
    for res in (first, after):
        y, seconds, _, _, _ = _derive(matrix, res.plan, x, spec)
        _same(res.y, y)
        assert repr(res.seconds) == repr(seconds)


def _subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _counting(calls, name, fn):
    """``fn``, appending ``name`` to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_cache_hit_prices_nothing(monkeypatch):
    """A plan-cache hit runs the bound plan: no cost model, no checks."""
    import repro.device.executor as dev_exec
    from repro.binning.base import BinningScheme
    from repro.kernels.base import Kernel

    calls = []

    def counting(name, fn):
        return _counting(calls, name, fn)

    matrix = gen.power_law_graph(800, seed=5)
    x = make_rhs(matrix, seed=2)
    X = make_rhs_block(matrix, 3, seed=2)
    with SpMVServer(planner=lambda m: _plan(m, CoarseBinning(10)),
                    max_rhs=2) as server:
        first, first_batch = server.submit(matrix, x), server.submit_batch(
            matrix, X)
        for cls in _subclasses(Kernel):
            if "cost" in vars(cls):
                monkeypatch.setattr(cls, "cost", counting("cost", cls.cost))
        for cls in _subclasses(BinningScheme):
            if "overhead_seconds" in vars(cls):
                monkeypatch.setattr(cls, "overhead_seconds", counting(
                    "overhead_seconds", cls.overhead_seconds))
        for name in ("effective_gather_locality", "_check_coverage"):
            monkeypatch.setattr(dev_exec, name,
                                counting(name, getattr(dev_exec, name)))
        hit, hit_batch = server.submit(matrix, x), server.submit_batch(
            matrix, X)
    assert hit.cache_hit and hit_batch.cache_hit
    assert calls == []
    _same(hit.y, first.y)
    _same(hit_batch.y, first_batch.y)
    assert repr(hit.seconds) == repr(first.seconds)
    assert repr(hit_batch.seconds) == repr(first_batch.seconds)


def _count_pricing(monkeypatch):
    """Every ``Kernel.cost`` call and gather-locality pass from here on,
    counted through each name a pricing module imports."""
    import repro.core.framework as framework
    import repro.device.executor as dev_exec
    from repro.kernels.base import Kernel

    calls = []
    for cls in _subclasses(Kernel):
        if "cost" in vars(cls):
            monkeypatch.setattr(cls, "cost", _counting(calls, "cost",
                                                       cls.cost))
    for module in (dev_exec, framework):
        if hasattr(module, "effective_gather_locality"):
            monkeypatch.setattr(module, "effective_gather_locality",
                                _counting(calls, "locality",
                                          module.effective_gather_locality))
    return calls


@pytest.mark.parametrize("n_shards", [None, 2])
def test_cold_tuned_submit_prices_each_plan_once(monkeypatch, n_shards):
    """A tuned miss binds once per planned structure: the tuner's bind
    prices the prediction and the plan cache runs that bound plan."""
    tuner = _tuner("tree")
    matrix = _prediction_matrices("tenant_mix")[1]
    x = make_rhs(matrix, seed=2)
    structures = [matrix] if n_shards is None else [
        s.matrix for s in make_shards(matrix, n_shards,
                                      ShardingPolicy().strategy)]
    launches = sum(tuner.plan(s).n_launches for s in structures)
    sharding = None if n_shards is None else ShardingPolicy(
        n_shards=n_shards, backend="inline")
    with SpMVServer(tuner, sharding=sharding) as server:
        calls = _count_pricing(monkeypatch)
        res = server.submit(matrix, x)
    assert not res.cache_hit
    assert calls.count("locality") == len(structures)
    assert calls.count("cost") == launches


def test_plan_cache_keeps_the_tuners_bound_plan():
    tuner = _tuner("tree")
    matrix = _prediction_matrices("tenant_mix")[2]
    x = make_rhs(matrix, seed=2)
    with SpMVServer(tuner) as server:
        res = server.submit(matrix, x)
        bound = server.cache.bound(fingerprint_matrix(matrix), res.plan,
                                   server.device, matrix)
    assert not res.cache_hit and res.plan.bound is not None
    assert bound is res.plan.bound


def test_server_on_another_device_spec_rebinds():
    """The tuner's bound plan carries the tuner's spec; a server on
    another spec binds its own and prices on it."""
    tuner = _tuner("tree")
    matrix = _prediction_matrices("tenant_mix")[3]
    x = make_rhs(matrix, seed=2)
    spec = dataclasses.replace(
        tuner.device.spec,
        kernel_launch_cycles=2 * tuner.device.spec.kernel_launch_cycles)
    device = SimulatedDevice(spec)
    with SpMVServer(tuner, device=device) as server:
        res = server.submit(matrix, x)
    want = device.run_spmv(matrix, x, res.plan.bind(device, matrix))
    _same(res.y, want.y)
    assert repr(res.seconds) == repr(want.seconds)
    assert repr(res.seconds) != repr(run_plan_spmv(
        tuner.device, matrix, x, res.plan).seconds)


def test_chaos_device_draws_one_fault_per_execution():
    """A split multi-RHS block is one execution: one draw, not one per
    column block."""
    from repro.resilient import ChaosDevice, FaultKind, FaultSchedule

    matrix = gen.banded(200, seed=3)
    X = make_rhs_block(matrix, 8, seed=4)
    device = ChaosDevice(
        SimulatedDevice(), FaultSchedule(script=[FaultKind.LATENCY_SPIKE]))
    plan = _plan(matrix, CoarseBinning(10))
    spiked = run_plan_spmm(device, matrix, X, plan, max_rhs=3)
    clean = run_plan_spmm(device, matrix, X, plan, max_rhs=3)
    assert spiked.n_passes == clean.n_passes == 3
    assert device.injected_counts() == {"latency_spike": 1}
    assert spiked.seconds == clean.seconds * device.latency_factor
    _same(spiked.U, clean.U)


def test_concurrent_submits_and_invalidations_keep_bound_prices():
    """Eight threads submit SpMV and k-wide batches while a ninth keeps
    invalidating under a planner whose every plan differs: each response
    must carry exactly the price and result of the plan it reports -- a
    stale or crossed bound plan, or a torn per-width memo, would not."""
    import itertools
    import sys
    import threading

    matrix = gen.power_law_graph(800, seed=6)
    spec = DeviceSpec.kaveri_apu()
    widths = (None, 1, 2, 3, 5)
    calls = itertools.count()

    def rotating_planner(m):
        shift = next(calls) % len(DEFAULT_KERNEL_NAMES)
        binning = CoarseBinning(10).bin_rows(m)
        return ExecutionPlan(
            scheme=CoarseBinning(10),
            binning=binning,
            bin_kernels={
                b: DEFAULT_KERNEL_NAMES[(i + shift) % len(DEFAULT_KERNEL_NAMES)]
                for i, (b, _) in enumerate(binning.non_empty())
            },
            source="test",
        )

    responses = []
    stop = threading.Event()
    server = SpMVServer(planner=rotating_planner, max_rhs=2)

    def client(wid):
        for i in range(40):
            k = widths[(wid + i) % len(widths)]
            rhs = _rhs_for(matrix, k)
            res = (server.submit(matrix, rhs) if k is None
                   else server.submit_batch(matrix, rhs))
            responses.append((k, res))

    def invalidator():
        while not stop.is_set():
            server.invalidate(matrix)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(8)]
        churn = threading.Thread(target=invalidator)
        churn.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        stop.set()
        churn.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
        server.close()
    assert not any(t.is_alive() for t in threads) and not churn.is_alive()
    assert len(responses) == 8 * 40
    assert len({tuple(res.plan.bin_kernels.values())
                for _, res in responses}) > 1
    derived = {}
    for k, res in responses:
        key = (tuple(res.plan.bin_kernels.values()), k)
        if key not in derived:
            derived[key] = _derive(matrix, res.plan, _rhs_for(matrix, k),
                                   spec, 2)
        y, seconds = derived[key][:2]
        assert repr(res.seconds) == repr(seconds), key
        _same(res.y, y)


def _rhs_for(matrix, k):
    return make_rhs(matrix, seed=3) if k is None else make_rhs_block(
        matrix, k, seed=3)


# ---------------------------------------------------------------------------
# SpMM columns against SpMV, revalued matrices, edge structures
# ---------------------------------------------------------------------------

#: Families with rows longer than 128 nnz: ``reduceat`` sums such
#: segments pairwise, not left to right.
LONG_ROW_FAMILIES = ("dense_row_outliers", "quantum_chemistry_like")
SPMM_PATHS = ("device", "plain", "sharded_inline", "process")


def _spmv(path, get, matrix, x, plan):
    if path == "device":
        return run_plan_spmv(SimulatedDevice(), matrix, x, plan).u
    return get(path, None).submit(matrix, x).y


def _spmm(path, get, matrix, X, plan, max_rhs):
    if path == "device":
        return run_plan_spmm(SimulatedDevice(), matrix, X, plan,
                             max_rhs=max_rhs).U
    return get(path, max_rhs).submit_batch(matrix, X).y


@pytest.mark.parametrize("family", LONG_ROW_FAMILIES)
@pytest.mark.parametrize("path", SPMM_PATHS)
def test_spmm_columns_equal_spmv_on_long_rows(servers, path, family):
    """Column ``c`` of every SpMM is the SpMV of ``X[:, c]``, bit for bit,
    for C- and F-ordered blocks, whole or split into column blocks."""
    planner, get = servers
    matrix = _matrix(family)
    assert matrix.row_lengths().max() > 128
    for scheme_name in ("single", "coarse10"):
        planner.scheme = SCHEMES[scheme_name]
        plan = _plan(matrix, planner.scheme)
        if path != "device":
            for max_rhs in (None, 3):
                get(path, max_rhs).clear_cache()
        for k in (2, 3, 8):
            X = make_rhs_block(matrix, k, seed=11)
            columns = [_spmv(path, get, matrix, np.ascontiguousarray(X[:, c]),
                             plan) for c in range(k)]
            for order in ("C", "F"):
                block = np.asarray(X, order=order)
                for max_rhs in (None, 3):
                    U = _spmm(path, get, matrix, block, plan, max_rhs)
                    label = f"{path}/{family}/{scheme_name}/k={k}/{order}/{max_rhs}"
                    assert U.shape == (matrix.nrows, k), label
                    for c in range(k):
                        assert np.array_equal(U[:, c], columns[c]), label


def _revalued(matrix):
    """Same structure, new values, new object."""
    return CSRMatrix(matrix.rowptr.copy(), matrix.colidx.copy(),
                     matrix.val * -1.5 + 0.25, matrix.shape)


@pytest.mark.parametrize("path", SPMM_PATHS)
def test_cached_bound_plan_serves_revalued_matrix(servers, path):
    """A bound plan captures no values: run for a new matrix object with
    the same structure, it returns that matrix's product."""
    planner, get = servers
    scheme = CoarseBinning(10)
    planner.scheme = scheme
    matrix = _matrix("power_law_graph")
    revalued = _revalued(matrix)
    spec = DeviceSpec.kaveri_apu()
    x, X = make_rhs(matrix, seed=5), make_rhs_block(matrix, 3, seed=5)
    if path == "device":
        device = SimulatedDevice()
        bound = _plan(matrix, scheme).bind(device, matrix)
        device.run_spmv(matrix, x, bound)
        y = device.run_spmv(revalued, x, bound).u
        Y = device.run_spmm(revalued, X, bound).U
    else:
        server = get(path, None)
        server.clear_cache()
        server.submit(matrix, x)
        server.submit_batch(matrix, X)
        res, res_batch = server.submit(revalued, x), server.submit_batch(
            revalued, X)
        assert res.cache_hit and res_batch.cache_hit
        y, Y = res.y, res_batch.y
    if path in ("sharded_inline", "process"):
        want_y = _derive_sharded(revalued, scheme, x, spec, None)[0]
        want_Y = _derive_sharded(revalued, scheme, X, spec, None)[0]
    else:
        plan = _plan(revalued, scheme)
        want_y = _derive(revalued, plan, x, spec)[0]
        want_Y = _derive(revalued, plan, X, spec)[0]
    _same(y, want_y)
    _same(Y, want_Y)
    np.testing.assert_allclose(y, reference_spmv(revalued, x), rtol=1e-12)
    np.testing.assert_allclose(Y, reference_spmm(revalued, X), rtol=1e-12)
    assert not np.allclose(y, reference_spmv(matrix, x))


def _empty_csr(nrows, ncols):
    return CSRMatrix(np.zeros(nrows + 1, dtype=np.int64),
                     np.zeros(0, dtype=np.int64), np.zeros(0),
                     (nrows, ncols))


def _last_row_only():
    dense = np.zeros((9, 200))
    dense[-1] = np.random.default_rng(3).random(200) + 0.5
    return CSRMatrix.from_dense(dense)


def _hand_plan(nrows, launches):
    """A plan whose bins are exactly ``launches`` ``(kernel, rows)``."""
    bins = tuple(np.asarray(rows, dtype=np.int64) for _, rows in launches)
    return ExecutionPlan(
        scheme=SingleBinning(),
        binning=BinningResult("hand", bins,
                              tuple(str(b) for b in range(len(bins)))),
        bin_kernels={b: kernel for b, (kernel, rows) in enumerate(launches)
                     if len(rows)},
        source="test",
    )


def _permuted_beside_contiguous():
    """A non-ascending launch, a contiguous one, and a gapped one."""
    matrix = gen.quantum_chemistry_like(40, avg_nnz=12, seed=3)
    permuted = [5, 0, 17, 3]
    contiguous = list(range(20, 40))
    gapped = sorted(set(range(20)) - set(permuted))
    return matrix, _hand_plan(matrix.nrows, [
        ("subvector8", permuted), ("serial", contiguous), ("vector", gapped),
    ])


def _whole(matrix, kernel="serial"):
    return _hand_plan(matrix.nrows, [(kernel, np.arange(matrix.nrows))])


EDGE_CASES = {
    "zero_rows": lambda: (_empty_csr(0, 5), _whole(_empty_csr(0, 5))),
    "all_empty_rows": lambda: (_empty_csr(6, 4),
                               _whole(_empty_csr(6, 4), "subvector4")),
    "last_row_only": lambda: (_last_row_only(), _whole(_last_row_only())),
    "permuted_launch": _permuted_beside_contiguous,
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
@pytest.mark.parametrize("path", ("device", "plain"))
def test_edge_structures_match_derivation(case, path):
    matrix, plan = EDGE_CASES[case]()
    spec = DeviceSpec.kaveri_apu()
    x, X = make_rhs(matrix, seed=9), make_rhs_block(matrix, 3, seed=9)
    with SpMVServer(planner=lambda m: plan, max_rhs=2) as server:
        for rhs, max_rhs in ((x, None), (X, None), (X, 2)):
            if path == "device":
                device = SimulatedDevice()
                res = (run_plan_spmv(device, matrix, rhs, plan)
                       if rhs.ndim == 1 else
                       run_plan_spmm(device, matrix, rhs, plan,
                                     max_rhs=max_rhs))
                got, seconds = (res.u if rhs.ndim == 1 else res.U), res.seconds
            elif rhs.ndim == 2 and max_rhs is None:
                continue  # the server splits every block at max_rhs=2
            else:
                res = (server.submit(matrix, rhs) if rhs.ndim == 1
                       else server.submit_batch(matrix, rhs))
                got, seconds = res.y, res.seconds
            y, want_seconds = _derive(matrix, plan, rhs, spec, max_rhs)[:2]
            _same(got, y)
            assert repr(seconds) == repr(want_seconds), (case, max_rhs)
            ref = (reference_spmv(matrix, rhs) if rhs.ndim == 1
                   else reference_spmm(matrix, rhs))
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# One compute pass per request
# ---------------------------------------------------------------------------

def test_requests_compute_in_one_pass_not_per_launch(monkeypatch):
    """Launches only price: a cold and a warm ``submit``, a block split
    at ``max_rhs=2`` and an inline-sharded request call no kernel's
    ``compute`` and build no gather index, and each ``y`` is still the
    launch-by-launch derivation's, bit for bit."""
    import repro.kernels.base as kernels_base
    from repro.kernels.base import Kernel

    scheme = CoarseBinning(10)
    matrix = gen.power_law_graph(800, seed=5)
    x, X = make_rhs(matrix, seed=2), make_rhs_block(matrix, 3, seed=2)
    spec = DeviceSpec.kaveri_apu()
    plan = _plan(matrix, scheme)
    assert plan.n_launches > 2
    want_x = _derive(matrix, plan, x, spec)[0]
    want_X = _derive(matrix, plan, X, spec, 2)[0]
    want_sharded = _derive_sharded(matrix, scheme, x, spec, None)[0]

    calls = []
    monkeypatch.setattr(kernels_base, "_gather_index", _counting(
        calls, "_gather_index", kernels_base._gather_index))
    for cls in _subclasses(Kernel):
        if "compute" in vars(cls):
            monkeypatch.setattr(cls, "compute", _counting(
                calls, f"{cls.__name__}.compute", cls.compute))
    with SpMVServer(planner=lambda m: _plan(m, scheme), max_rhs=2) as server:
        cold, warm = server.submit(matrix, x), server.submit(matrix, x)
        batch = server.submit_batch(matrix, X)
    with SpMVServer(planner=lambda m: _plan(m, scheme),
                    sharding=ShardingPolicy(n_shards=N_SHARDS,
                                            backend="inline")) as server:
        sharded = [server.submit(matrix, x) for _ in range(2)]
    assert calls == []
    assert not cold.cache_hit and warm.cache_hit and batch.cache_hit
    assert batch.n_dispatches == 2 * cold.n_dispatches  # two passes
    assert not sharded[0].cache_hit and sharded[1].cache_hit
    _same(cold.y, want_x)
    _same(warm.y, want_x)
    _same(batch.y, want_X)
    for res in sharded:
        _same(res.y, want_sharded)


def test_bound_plan_runs_only_on_its_size():
    """A bound plan holds CSR row starts, so it refuses a matrix with its
    row count but another nnz, as it refuses another row count."""
    matrix = gen.banded(60, seed=1)
    other = gen.banded(60, avg_nnz=3.0, seed=1)
    assert other.nrows == matrix.nrows and other.nnz != matrix.nnz
    device = SimulatedDevice()
    bound = _plan(matrix, CoarseBinning(10)).bind(device, matrix)
    assert bound.binds(matrix, device.spec)
    assert not bound.binds(other, device.spec)
    with pytest.raises(DeviceError):
        device.run_spmv(other, make_rhs(other), bound)
    with pytest.raises(DeviceError):
        device.run_spmm(other, make_rhs_block(other, 2), bound)


# ---------------------------------------------------------------------------
# The tuner's prediction against the same re-derivation
# ---------------------------------------------------------------------------

#: The generator calls of the repository benchmark's ``tenant_mix``
#: workload: 24 structures over six families, 2 000 to 12 000 rows.
TENANT_MIX_FAMILIES = (
    lambda n, seed: gen.banded(n, avg_nnz=12.0, seed=seed),
    lambda n, seed: gen.power_law_graph(n, seed=seed),
    lambda n, seed: gen.cfd_like(n, avg_nnz=24.0, spread=4.0, seed=seed),
    lambda n, seed: gen.fem_constrained(n, seed=seed),
    lambda n, seed: gen.road_network(n, seed=seed),
    lambda n, seed: gen.bimodal_rows(n, seed=seed),
)


@lru_cache(maxsize=None)
def _prediction_matrices(kind):
    if kind == "tenant_mix":
        return tuple(
            TENANT_MIX_FAMILIES[i % len(TENANT_MIX_FAMILIES)](
                2_000 + (10_000 * i) // 23, i)
            for i in range(24)
        )
    if kind == "corpus":
        return tuple(spec.build() for spec in _corpus())
    return tuple(representative_matrix(name, scale=0.05, seed=0)
                 for name in REPRESENTATIVE_NAMES)


@lru_cache(maxsize=None)
def _corpus():
    return tuple(generate_collection(16, seed=0, size_range=(500, 3_000)))


@lru_cache(maxsize=None)
def _tuner(classifier):
    tuner = AutoTuner(classifier=classifier, seed=0)
    tuner.fit(list(_corpus()))
    return tuner


def _derive_prediction(tuner, matrix, plan):
    """The planner's expected seconds, term by term in plan order."""
    spec = tuner.device.spec
    lengths = matrix.row_lengths()
    total = plan.scheme.overhead_seconds(matrix, spec)
    for b, rows in plan.binning.non_empty():
        total += tuner.device.time_dispatch(
            get_kernel(plan.bin_kernels[b]), lengths[rows],
            effective_gather_locality(matrix, spec))
    return float(total)


def _assert_runs_match_derivation(tuner, matrix, plan):
    """``plan`` run on a vector and on a 3-column block split at
    ``max_rhs=2``: bit-identical ``y`` and equal ``repr(seconds)``."""
    x, X = make_rhs(matrix, seed=4), make_rhs_block(matrix, 3, seed=4)
    for rhs, max_rhs, res in (
            (x, None, run_plan_spmv(tuner.device, matrix, x, plan)),
            (X, 2, run_plan_spmm(tuner.device, matrix, X, plan, max_rhs=2))):
        y, seconds = _derive(matrix, plan, rhs, tuner.device.spec,
                             max_rhs)[:2]
        _same(res.y, y)
        assert repr(res.seconds) == repr(seconds)


@pytest.mark.parametrize("kind", ["tenant_mix", "corpus", "representative"])
@pytest.mark.parametrize("classifier", ["tree", "boosted"])
def test_predicted_seconds_match_derivation(classifier, kind):
    tuner = _tuner(classifier)
    for matrix in _prediction_matrices(kind):
        plan = tuner.plan(matrix)
        assert repr(plan.predicted_seconds) == repr(
            _derive_prediction(tuner, matrix, plan))
        _assert_runs_match_derivation(tuner, matrix, plan)


class _Forced:
    """A stage-1 model that always picks one scheme index."""

    def __init__(self, index):
        self.index = index

    def predict(self, X):
        return np.full(len(X), self.index)


@pytest.mark.parametrize("classifier", ["tree", "boosted"])
def test_predicted_seconds_match_derivation_on_every_scheme(classifier):
    """The trained tuners pick one bin on these matrices, so each scheme
    is forced in turn: the prediction then sums many launches, and the
    plans run many launches."""
    tuner = copy.copy(_tuner(classifier))
    n_launches = set()
    for index in range(len(tuner.space.schemes())):
        tuner.stage1_model = _Forced(index)
        for matrix in _prediction_matrices("tenant_mix")[:6]:
            plan = tuner.plan(matrix)
            n_launches.add(plan.n_launches)
            assert repr(plan.predicted_seconds) == repr(
                _derive_prediction(tuner, matrix, plan))
            _assert_runs_match_derivation(tuner, matrix, plan)
    assert max(n_launches) > 2


@pytest.mark.parametrize("classifier", ["tree", "boosted"])
def test_plan_runs_on_another_structure_of_its_size(classifier):
    """A plan binds afresh for whatever matrix it runs on: B has A's
    row count and nnz but its rows reversed, so A's gathers and prices
    would give B the wrong ``y`` and the wrong seconds."""
    tuner = _tuner(classifier)
    a = _prediction_matrices("tenant_mix")[1]
    b = a.select_rows(np.arange(a.nrows)[::-1])
    assert (b.nrows, b.nnz) == (a.nrows, a.nnz)
    plan = tuner.plan(a)
    v = make_rhs(b, seed=5)
    y, seconds, _, _, _ = _derive(b, plan, v, tuner.device.spec)
    assert repr(seconds) != repr(plan.predicted_seconds)
    res = run_plan_spmv(tuner.device, b, v, plan)
    _same(res.y, y)
    assert repr(res.seconds) == repr(seconds)
