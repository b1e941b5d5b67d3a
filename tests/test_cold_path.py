"""Differential: the cold path against the loops it must agree with.

A plan-cache miss and a tuner fit run four pieces of model code:
``evaluate_matrix`` (every scheme, bin and kernel priced), the online
selector's arm priors, ``extract_features`` and ``gather_locality``.
Each is pinned here to a plain form kept in the test -- every
``(scheme, bin, kernel)`` priced with ``time_dispatch``, every arm plan
bound on its own, the Table I fields of ``RowStats``, and the
masked-mean locality -- with equal ``repr`` of every float.  The kernel
profiler is pinned the same way: a plan's profile total is the sum of
its bound plan's dispatch seconds.

Structures: the training corpus and the 24 generator calls of the
repository benchmark's ``tenant_mix`` workload (priors and profiles
also over ``generate_collection(40, seed=3)``), plus edge structures
for the statistics (no rows, no non-zeros, one row, runs of empty
rows, empty rows at either end).
"""

import numpy as np
import pytest

from repro.binning import CoarseBinning
from repro.core.plan import ExecutionPlan
from repro.core.training import evaluate_matrix
from repro.core.tuning_space import TuningSpace
from repro.device import SimulatedDevice
from repro.device.memory import effective_gather_locality, gather_locality
from repro.features.extract import extract_features
from repro.formats.csr import CSRMatrix
from repro.kernels import DEFAULT_KERNEL_NAMES, get_kernel
from repro.learn import TREE_ARM_NAME, LearningPolicy, OnlineSelector
from repro.matrices import generate_collection
from repro.matrices.stats import RowStats
from repro.observe import MetricsRegistry
from repro.serve.server import heuristic_planner
from repro.trace.profiler import KernelProfiler
from tests.differential import pathological_matrices
from tests.test_bound_plan import _prediction_matrices, _tuner

pytestmark = pytest.mark.differential


def _naive_evaluations(matrix, device, space):
    """Every ``(scheme, bin, kernel)`` priced with ``time_dispatch``."""
    spec = device.spec
    g = effective_gather_locality(matrix, spec)
    lengths = matrix.row_lengths()
    launch = spec.seconds(spec.kernel_launch_cycles)
    out = []
    for si, scheme in enumerate(space.schemes()):
        overhead = scheme.overhead_seconds(matrix, spec)
        best, total = {}, overhead
        for b, rows in scheme.bin_rows(matrix).non_empty():
            best_name, best_t = None, np.inf
            for name in space.kernel_names:
                t = device.time_dispatch(get_kernel(name), lengths[rows], g,
                                         include_launch=False)
                if t < best_t:
                    best_name, best_t = name, t
            best[b] = (best_name, repr(best_t))
            total += best_t + launch
        out.append((si, space.scheme_labels[si], best, repr(float(total)),
                    repr(float(overhead)), len(best)))
    return out


@pytest.mark.parametrize("kind", ["corpus", "tenant_mix"])
def test_evaluate_matrix_matches_naive_loop(kind):
    device, space = SimulatedDevice(), TuningSpace()
    for matrix in _prediction_matrices(kind):
        got = [
            (ev.scheme_index, ev.scheme_label,
             {b: (k, repr(t)) for b, (k, t) in ev.best_kernels.items()},
             repr(ev.total_seconds), repr(ev.binning_overhead),
             ev.n_launches)
            for ev in evaluate_matrix(matrix, device, space)
        ]
        assert got == _naive_evaluations(matrix, device, space)


def _seeded_structures():
    """The ``tenant_mix`` structures, then ``generate_collection(40,
    seed=3)``, built one at a time."""
    yield from _prediction_matrices("tenant_mix")
    for spec in generate_collection(40, seed=3):
        yield spec.build()


def _cycled_plan(matrix, u):
    """A coarse-``u`` plan with the kernels cycled over its bins."""
    binning = CoarseBinning(u).bin_rows(matrix)
    return ExecutionPlan(
        scheme=CoarseBinning(u), binning=binning,
        bin_kernels={b: DEFAULT_KERNEL_NAMES[j % len(DEFAULT_KERNEL_NAMES)]
                     for j, (b, _) in enumerate(binning.non_empty())})


@pytest.mark.learn
@pytest.mark.parametrize("planner", ["tuner", "heuristic", "cycled"])
def test_seeded_priors_are_bound_predictions(planner):
    """A fresh selector per structure, so every structure seeds its key:
    every arm's prior, the tree's included, is its plan bound on the
    device -- the seconds a run of that arm is charged.  The heuristic
    and ``cycled`` planners leave ``predicted_seconds`` unset, so the
    seeding binds their plans itself: one bin without binning overhead,
    and a coarse ``U = 20`` plan of several kernels with it."""
    base = {"tuner": _tuner("tree").plan, "heuristic": heuristic_planner,
            "cycled": lambda m: _cycled_plan(m, 20)}[planner]
    for i, matrix in enumerate(_seeded_structures()):
        selector = OnlineSelector(LearningPolicy(epsilon=0.0), base,
                                  registry=MetricsRegistry())
        decision = selector.decide(matrix, f"structure-{i}")
        assert decision.arm.name == TREE_ARM_NAME
        for arm in selector.arms:
            plan = (base(matrix) if arm.is_tree
                    else OnlineSelector._arm_plan(matrix, arm))
            prior = selector._priors[(decision.key, arm.name)]
            assert type(prior) is float
            assert repr(prior) == repr(plan.bind(
                SimulatedDevice(), matrix).predicted_seconds()), (i, arm.name)


@pytest.mark.trace
def test_profile_totals_are_bound_dispatch_seconds():
    """The profiler prices each launch at the device's locality: a
    plan's profile total is the sum of its bound plan's dispatch
    seconds, for the tuned, heuristic, arm and multi-kernel plans, and
    a sweep's row is its launch's bound dispatch seconds."""
    tuner, device, profiler = _tuner("tree"), SimulatedDevice(), KernelProfiler()
    arms = [arm for arm in OnlineSelector(
        LearningPolicy(), heuristic_planner,
        registry=MetricsRegistry()).arms if not arm.is_tree]
    for i, matrix in enumerate(_seeded_structures()):
        plans = [tuner.plan(matrix), heuristic_planner(matrix)]
        plans += [OnlineSelector._arm_plan(matrix, arm) for arm in arms]
        plans += [_cycled_plan(matrix, u) for u in (20, 200)]
        times = [plan.bind(device, matrix).pass_times(1) for plan in plans]
        for j, plan in enumerate(plans):
            assert repr(profiler.profile_plan(matrix, plan).total_seconds()) == (
                repr(float(sum(times[j])))), (i, j)
        swept = {(r.granularity, r.bin_id, r.kernel): repr(r.total_seconds)
                 for r in profiler.sweep(matrix, granularities=(20, 200)).rows}
        for plan, launches in zip(plans[-2:], times[-2:]):
            u = plan.scheme.u
            assert [swept[(u, b, plan.bin_kernels[b])]
                    for b, _ in plan.binning.non_empty()] == [
                repr(t) for t in launches], (i, u)


def _edge_structures():
    """Small structures at each boundary of the statistics."""
    def csr(rowptr, colidx, ncols=8):
        colidx = np.asarray(colidx, dtype=np.int64)
        return CSRMatrix(np.asarray(rowptr, dtype=np.int64), colidx,
                         np.ones(len(colidx)), (len(rowptr) - 1, ncols))

    return [
        ("no rows", CSRMatrix.empty((0, 5))),
        ("nnz 0", CSRMatrix.empty((3, 3))),
        ("nnz 1", csr([0, 0, 1, 1], [4])),
        ("one row", csr([0, 5], [0, 1, 2, 7, 3])),
        ("one row, one entry", csr([0, 1], [6])),
        ("all rows length 1", CSRMatrix.identity(6)),
        ("runs of empty rows", csr([0, 3, 3, 3, 6, 6, 8],
                                   [0, 1, 7, 2, 3, 4, 0, 7])),
        ("leading empty rows", csr([0, 0, 0, 3, 5], [0, 2, 4, 5, 6])),
        ("trailing empty rows", csr([0, 2, 5, 5, 5], [0, 7, 1, 2, 3])),
        ("last row a single entry", csr([0, 4, 5], [0, 1, 2, 3, 7])),
    ]


def _statistics_structures():
    structures = list(_edge_structures())
    structures += pathological_matrices(seed=0)
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40):
        lengths = rng.integers(0, 4, size=n) * rng.integers(0, 2, size=n)
        structures.append((f"random sparse rows {n}",
                           CSRMatrix.from_row_lengths(lengths, 64, rng=rng)))
    for kind in ("corpus", "tenant_mix"):
        structures += [(f"{kind} {i}", m)
                       for i, m in enumerate(_prediction_matrices(kind))]
    return structures


def test_extract_features_are_row_stats_table_one():
    for label, matrix in _statistics_structures():
        f = extract_features(matrix)
        s = RowStats.from_matrix(matrix)
        got = (f.m, f.n, f.nnz, f.var_nnz, f.avg_nnz, f.min_nnz, f.max_nnz)
        expected = (s.nrows, s.ncols, s.nnz, s.var_nnz, s.avg_nnz,
                    s.min_nnz, s.max_nnz)
        assert [(type(v), repr(v)) for v in got] == [
            (type(v), repr(v)) for v in expected], label


def _masked_mean_locality(matrix, window=8):
    """Drop the pairs that straddle a row boundary from a masked copy of
    the column-index differences, then take the mean of the close ones."""
    if matrix.nnz < 2:
        return 1.0
    diffs = np.diff(matrix.colidx)
    boundary = matrix.rowptr[1:-1] - 1
    boundary = boundary[(boundary >= 0) & (boundary < matrix.nnz - 1)]
    mask = np.ones(matrix.nnz - 1, dtype=bool)
    mask[boundary] = False
    intra = np.abs(diffs[mask])
    if len(intra) == 0:
        return 1.0
    return float(np.mean(intra <= window))


@pytest.mark.parametrize("window", [0, 1, 8, 64])
def test_gather_locality_matches_masked_mean(window):
    for label, matrix in _statistics_structures():
        got = gather_locality(matrix, window=window)
        assert type(got) is float
        assert repr(got) == repr(_masked_mean_locality(matrix, window)), label
