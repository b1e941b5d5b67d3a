"""Differential: the cold path against the loops it must agree with.

A plan-cache miss and a tuner fit run four pieces of model code:
``evaluate_matrix`` (every scheme, bin and kernel priced), the online
selector's arm priors, ``extract_features`` and ``gather_locality``.
Each is pinned here to a plain form kept in the test -- every
``(scheme, bin, kernel)`` priced with ``time_dispatch``, every arm plan
profiled on its own, the Table I fields of ``RowStats``, and the
masked-mean locality -- with equal ``repr`` of every float.

Structures: the training corpus and the 24 generator calls of the
repository benchmark's ``tenant_mix`` workload, plus edge structures
for the statistics (no rows, no non-zeros, one row, runs of empty
rows, empty rows at either end).
"""

import numpy as np
import pytest

from repro.core.training import evaluate_matrix
from repro.core.tuning_space import TuningSpace
from repro.device import SimulatedDevice
from repro.device.memory import effective_gather_locality, gather_locality
from repro.features.extract import extract_features
from repro.formats.csr import CSRMatrix
from repro.kernels import get_kernel
from repro.learn import TREE_ARM_NAME, LearningPolicy, OnlineSelector
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


def _profiled(matrix, plan):
    return repr(KernelProfiler().profile_plan(matrix, plan).total_seconds())


@pytest.mark.parametrize("planner", ["tuner", "heuristic"])
def test_seeded_priors_match_one_profile_per_arm(planner):
    """A fresh selector per structure, so every structure seeds its key:
    each candidate arm's prior is its own plan profiled alone, and the
    tree's is the base plan's prediction (profiled when it has none)."""
    tuner = _tuner("tree")
    base = tuner.plan if planner == "tuner" else heuristic_planner
    for i, matrix in enumerate(_prediction_matrices("tenant_mix")):
        selector = OnlineSelector(LearningPolicy(epsilon=0.0), base,
                                  registry=MetricsRegistry())
        decision = selector.decide(matrix, f"structure-{i}")
        assert decision.arm.name == TREE_ARM_NAME
        tree = (repr(tuner.plan(matrix).predicted_seconds)
                if planner == "tuner"
                else _profiled(matrix, heuristic_planner(matrix)))
        for arm in selector.arms:
            prior = selector._priors[(decision.key, arm.name)]
            assert type(prior) is float
            expected = (tree if arm.is_tree else
                        _profiled(matrix, OnlineSelector._arm_plan(matrix,
                                                                   arm)))
            assert repr(prior) == expected, (i, arm.name)


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
