"""Differential: batched pricing against the frozen per-bin formulas.

``tests/pricing_reference.py`` keeps the cost models of the nine kernels
and the dispatch roofline as they priced one bin at a time.  Every bin
here is priced by that reference, by the library on its own, and by the
library in one batch with the other bins of its matrix; every
``DispatchStats`` field, every ``dispatch_breakdown`` term and the
dispatch seconds must agree in type and ``repr``.

Bins: every distinct bin, under every scheme of the default tuning
space, of the 16-matrix training corpus, of ``generate_collection(40,
seed=3)``, of the 16 representative matrices and of the 24 structures
of the repository benchmark's ``tenant_mix`` workload -- plus edge bins
(one row, zero-length rows, rows longer than one round of ``4 * X``,
subvector128's two waves per row, every row several rounds, one row of
10^5 non-zeros).
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.tuning_space import TuningSpace
from repro.device import SimulatedDevice
from repro.device.dispatch import dispatch_breakdown, dispatch_seconds
from repro.device.memory import effective_gather_locality
from repro.device.spec import DeviceSpec
from repro.errors import KernelError
from repro.kernels import DEFAULT_KERNEL_NAMES, get_kernel
from repro.matrices import generate_collection
from tests.pricing_reference import (
    reference_breakdown,
    reference_cost,
    reference_seconds,
)
from tests.test_bound_plan import _prediction_matrices

pytestmark = pytest.mark.differential

SPEC = DeviceSpec.kaveri_apu()


def _distinct_bins(matrix):
    """Row lengths of every distinct non-empty bin of every scheme."""
    lengths = matrix.row_lengths()
    seen, out = set(), []
    for scheme in TuningSpace().schemes():
        for _, rows in scheme.bin_rows(matrix).non_empty():
            key = np.asarray(rows, dtype=np.int64).tobytes()
            if key not in seen:
                seen.add(key)
                out.append(lengths[rows])
    return out


def _structures(kind):
    if kind == "collection":
        return (spec.build() for spec in generate_collection(40, seed=3))
    return iter(_prediction_matrices(kind))


def _edge_bins():
    rng = np.random.default_rng(11)
    return [
        ("one row", np.array([7])),
        ("one empty row", np.array([0])),
        ("zero-length rows", np.array([0, 0, 0, 5, 0, 0, 0, 0])),
        ("all rows empty", np.zeros(70, dtype=np.int64)),
        ("rows past one round of 4X",
         np.array([9, 17, 33, 65, 129, 257, 513, 1025, 2049, 1])),
        ("two waves per row (X=128)", np.full(200, 300)),
        ("every row several rounds", np.full(70, 3_000)),
        ("one row of 1e5", np.array([100_000])),
        ("windows with empty rows", rng.integers(0, 20, size=130)
         * rng.integers(0, 2, size=130)),
        ("mixed short and long", np.concatenate([np.full(100, 2),
                                                 np.full(3, 5_000)])),
    ]


def _fields(record) -> list:
    return [(f.name, type(getattr(record, f.name)).__name__,
             repr(getattr(record, f.name))) for f in fields(record)]


def _breakdown_terms(bd) -> list:
    return [repr(v) for v in (bd.compute, bd.bandwidth, bd.latency,
                              bd.overhead, bd.total, bd.resident_waves)]


def _check_bins(bins, locality, label, spec=SPEC):
    """Each bin alone, and all of them as one batch, against the frozen
    per-bin formulas."""
    device = SimulatedDevice(spec)
    batch = np.concatenate(bins)
    bounds = np.cumsum([0] + [len(b) for b in bins])
    for name in DEFAULT_KERNEL_NAMES:
        kernel = get_kernel(name)
        want = [reference_cost(name, lengths, locality, spec)
                for lengths in bins]
        want_bd = [[repr(v) for v in reference_breakdown(w, spec)]
                   for w in want]
        want_s = [repr(reference_seconds(w, spec)) for w in want]
        for j, lengths in enumerate(bins):
            stats = kernel.cost(lengths, locality, spec)
            assert _fields(stats) == _fields(want[j]), (label, j, name)
            assert _breakdown_terms(dispatch_breakdown(stats, spec)) == (
                want_bd[j]), (label, j, name)
            assert repr(dispatch_seconds(stats, spec)) == want_s[j]
            assert repr(device.time_dispatch(
                kernel, lengths, locality, include_launch=False)) == (
                want_s[j]), (label, j, name)
        stats = kernel.cost(batch, locality, spec, bounds)
        assert [_fields(s) for s in stats.unbatch()] == [
            _fields(w) for w in want], (label, name)
        assert [_breakdown_terms(bd) for bd in
                dispatch_breakdown(stats, spec).unbatch()] == want_bd
        assert [repr(t) for t in dispatch_seconds(stats, spec).tolist()] == (
            want_s), (label, name)
        # The same bins as row sets of one matrix: several are one batch,
        # a lone one takes the one-bin path.
        row_sets = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert [_fields(s) for s in kernel.cost_rows(
            batch, row_sets, locality, spec).unbatch()] == [
            _fields(w) for w in want], (label, name)
        assert [_fields(s) for s in kernel.cost_rows(
            batch, row_sets[-1:], locality, spec).unbatch()] == [
            _fields(want[-1])], (label, name)


@pytest.mark.parametrize("kind", ["corpus", "collection", "representative",
                                  "tenant_mix"])
def test_every_distinct_bin_matches_the_per_bin_formulas(kind):
    for i, matrix in enumerate(_structures(kind)):
        g = effective_gather_locality(matrix, SPEC)
        _check_bins(_distinct_bins(matrix), g, (kind, i))


@pytest.mark.parametrize("locality", [0.0, 0.3137, 1.0])
def test_edge_bins_match_the_per_bin_formulas(locality):
    labels, bins = zip(*_edge_bins())
    _check_bins(list(bins), locality, labels)


def test_a_work_group_of_three_wavefronts_matches_the_formulas():
    """A work-group size that is not a power of two gives Kernel-Vector
    a fractional instruction count per round."""
    spec = DeviceSpec(workgroup_size=192)
    _check_bins([lengths for _, lengths in _edge_bins()], 0.42, "wg 192",
                spec)


def test_an_empty_bin_prices_nothing():
    for name in DEFAULT_KERNEL_NAMES:
        stats = get_kernel(name).cost(np.zeros(0), 0.5, SPEC)
        assert _fields(stats) == _fields(reference_cost(name, [], 0.5, SPEC))
        assert dispatch_seconds(stats, SPEC) == 0.0


@pytest.mark.parametrize("bounds", [[0], [1, 3], [0, 2], [0, 0, 3],
                                    [0, 2, 1, 3]])
def test_a_batch_needs_bounds_over_non_empty_bins(bounds):
    with pytest.raises(KernelError):
        get_kernel("serial").cost(np.ones(3), 0.5, SPEC, bounds)


def test_batched_profiles_match_one_dispatch_at_a_time(monkeypatch):
    """profile_plan prices each kernel's launches in one batch; every row
    equals that launch priced alone with ``Kernel.cost`` and profiled."""
    from repro.binning import CoarseBinning
    from repro.core.plan import ExecutionPlan
    from repro.trace import profiler as profiler_mod

    monkeypatch.setattr(profiler_mod, "effective_gather_locality",
                        lambda matrix, spec: 0.61)
    profiler = profiler_mod.KernelProfiler(SPEC)
    for matrix in _prediction_matrices("tenant_mix")[:6]:
        binning = CoarseBinning(20).bin_rows(matrix)
        plan = ExecutionPlan(
            scheme=CoarseBinning(20), binning=binning,
            bin_kernels={b: DEFAULT_KERNEL_NAMES[i % 9] for i, (b, _) in
                         enumerate(binning.non_empty())})
        report = profiler.profile_plan(matrix, plan)
        lengths = matrix.row_lengths()
        alone = []
        for b, rows in binning.non_empty():
            kernel = get_kernel(plan.bin_kernels[b])
            alone.append(profiler._profile(
                kernel.name, kernel.cost(lengths[rows], 0.61, SPEC),
                len(rows), int(lengths[rows].sum()), 20, b))
        assert report.as_dict()["dispatches"] == profiler._report(
            matrix, alone).as_dict()["dispatches"]
