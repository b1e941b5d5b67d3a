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
"""

from functools import lru_cache

import numpy as np
import pytest

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
from repro.kernels import DEFAULT_KERNEL_NAMES
from repro.kernels.base import row_products_batch
from repro.matrices import generators as gen
from repro.resilient import ResiliencePolicy, RetryPolicy
from repro.serve import SpMVServer, fingerprint_matrix, run_plan_spmm, run_plan_spmv
from repro.shard import ShardingPolicy
from repro.shard.partition import make_shards
from repro.utils.primitives import segmented_sum_2d

from tests.differential import make_rhs, make_rhs_block

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
                batch=k is not None, max_rhs=max_rhs,
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


def test_cache_hit_prices_nothing(monkeypatch):
    """A plan-cache hit runs the bound plan: no cost model, no checks."""
    import repro.device.executor as dev_exec
    from repro.binning.base import BinningScheme
    from repro.kernels.base import Kernel

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

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
