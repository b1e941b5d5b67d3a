"""Tests for every binning scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning import (
    CoarseBinning,
    DEFAULT_GRANULARITIES,
    FineBinning,
    HybridBinning,
    RowBlockBinning,
    SingleBinning,
)
from repro.binning.adaptive_rows import row_blocks
from repro.binning.base import BinningResult, binning_pass_seconds
from repro.binning.coarse import MAX_BINS
from repro.binning.fine import geometric_boundaries
from repro.device import DeviceSpec
from repro.errors import BinningError
from repro.formats import CSRMatrix
from repro.matrices import generators as gen

SPEC = DeviceSpec.kaveri_apu()


def lengths_matrix(lengths):
    """Matrix with the given exact row lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ncols = max(int(lengths.max(initial=1)), 1)
    return CSRMatrix.from_row_lengths(
        lengths, ncols, rng=np.random.default_rng(0)
    )


class TestBinningResult:
    def test_validate_partition_accepts(self):
        r = SingleBinning().bin_rows(CSRMatrix.identity(5))
        r.validate_partition(5)

    def test_validate_partition_rejects_missing(self):
        r = BinningResult("x", (np.array([0, 1]),), ("b",))
        with pytest.raises(BinningError):
            r.validate_partition(3)

    def test_validate_partition_rejects_duplicates(self):
        r = BinningResult("x", (np.array([0, 0, 1]),), ("b",))
        with pytest.raises(BinningError):
            r.validate_partition(3)

    def test_label_count_mismatch(self):
        with pytest.raises(BinningError):
            BinningResult("x", (np.array([0]),), ())

    def test_non_empty_iterator(self):
        r = BinningResult(
            "x",
            (np.array([], dtype=np.int64), np.array([0]), np.array([1])),
            ("a", "b", "c"),
        )
        assert [b for b, _ in r.non_empty()] == [1, 2]
        assert r.n_nonempty == 2
        assert r.n_bins == 3
        # One scan per result: every later call returns the same pairs.
        assert r.non_empty() is r.non_empty()


class TestCoarseBinning:
    def test_paper_worked_example(self):
        """§III-B: 10 rows, first 5 with 1 nnz, last 5 with 9 nnz.

        With U = 5 the first virtual row (wl = 5, bin 1) and the second
        (wl = 45, bin 9) land in different bins, unlike inter-bin
        blocking which merges them.
        """
        m = lengths_matrix([1] * 5 + [9] * 5)
        scheme = CoarseBinning(5)
        ids = scheme.bin_ids(m)
        np.testing.assert_array_equal(ids, [1, 9])
        result = scheme.bin_rows(m)
        result.validate_partition(10)
        np.testing.assert_array_equal(result.bins[1], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(result.bins[9], [5, 6, 7, 8, 9])

    def test_virtual_workloads(self):
        m = lengths_matrix([2, 3, 4, 5, 6])
        np.testing.assert_array_equal(
            CoarseBinning(2).virtual_workloads(m), [5, 9, 6]
        )

    def test_overflow_goes_to_last_bin(self):
        m = lengths_matrix([MAX_BINS * 3 + 50])
        scheme = CoarseBinning(3)
        ids = scheme.bin_ids(m)
        assert ids[0] == MAX_BINS - 1

    def test_partition_preserved_any_u(self):
        m = gen.power_law_graph(997, avg_degree=5, seed=0)
        for u in (1, 7, 64, 1000, 10_000):
            CoarseBinning(u).bin_rows(m).validate_partition(997)

    def test_rows_within_bin_sorted_and_adjacent_groups(self):
        m = lengths_matrix([1] * 4 + [9] * 4 + [1] * 4)
        result = CoarseBinning(4).bin_rows(m)
        # bins store expanded virtual rows in ascending first-row order.
        np.testing.assert_array_equal(result.bins[1], [0, 1, 2, 3, 8, 9, 10, 11])

    def test_empty_matrix(self):
        r = CoarseBinning(10).bin_rows(CSRMatrix.empty((0, 4)))
        assert r.total_rows() == 0

    def test_rejects_bad_u(self):
        with pytest.raises(BinningError):
            CoarseBinning(0)

    def test_default_granularities_match_paper(self):
        # §III-B: "U is preset to be 10, 20, 50, 100, 200, 500, ..., 10^6".
        # Pin the whole tuple: 200 and 500 were once silently missing,
        # which narrowed the stage-1 tuning space.
        assert DEFAULT_GRANULARITIES == (
            10, 20, 50, 100, 200, 500, 1000, 10_000, 100_000, 1_000_000
        )

    def test_overhead_decreases_with_u(self):
        """The Figure 8 effect: overhead shrinks as U grows."""
        m = gen.single_entry_rows(100_000, seed=1)
        costs = [
            CoarseBinning(u).overhead_seconds(m, SPEC) for u in (1, 10, 100, 1000)
        ]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert costs[0] > 50 * costs[2]

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=80),
        st.sampled_from([1, 2, 5, 10, 50]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_partition(self, lengths, u):
        m = lengths_matrix(lengths)
        r = CoarseBinning(u).bin_rows(m)
        r.validate_partition(len(lengths))


class TestFineBinning:
    def test_boundaries(self):
        np.testing.assert_array_equal(geometric_boundaries(5), [1, 2, 4, 8])

    def test_boundaries_reject_tiny(self):
        with pytest.raises(BinningError):
            geometric_boundaries(1)

    def test_bins_by_length_class(self):
        m = lengths_matrix([0, 1, 2, 3, 5, 9, 100])
        scheme = FineBinning(max_bins=6)
        ids = scheme.bin_ids(m)
        np.testing.assert_array_equal(ids, [0, 0, 1, 2, 3, 4, 5])

    def test_partition(self):
        m = gen.quantum_chemistry_like(800, avg_nnz=30, seed=2)
        FineBinning().bin_rows(m).validate_partition(800)

    def test_overhead_exceeds_coarse(self):
        """Per-row binning costs more than virtual-row binning."""
        m = gen.road_network(100_000, seed=3)
        fine = FineBinning().overhead_seconds(m, SPEC)
        coarse = CoarseBinning(100).overhead_seconds(m, SPEC)
        assert fine > coarse


class TestHybridBinning:
    def test_partition(self):
        m = gen.bimodal_rows(2_000, short_len=2, long_len=300, seed=4)
        HybridBinning(u=50, threshold=64).bin_rows(m).validate_partition(2_000)

    def test_long_rows_in_long_classes(self):
        m = lengths_matrix([2] * 100 + [500] * 3)
        scheme = HybridBinning(u=10, threshold=64)
        result = scheme.bin_rows(m)
        long_rows = np.concatenate(
            [result.bins[b] for b in range(100, result.n_bins)]
        )
        np.testing.assert_array_equal(np.sort(long_rows), [100, 101, 102])

    def test_rejects_bad_threshold(self):
        with pytest.raises(BinningError):
            HybridBinning(threshold=0)

    def test_overhead_between_coarse_and_fine(self):
        m = gen.bimodal_rows(50_000, long_fraction=0.02, seed=5)
        hybrid = HybridBinning(u=100).overhead_seconds(m, SPEC)
        coarse = CoarseBinning(100).overhead_seconds(m, SPEC)
        fine = FineBinning().overhead_seconds(m, SPEC)
        assert coarse <= hybrid <= fine


class TestSingleBinning:
    def test_all_rows_one_bin(self):
        m = CSRMatrix.identity(7)
        r = SingleBinning().bin_rows(m)
        assert r.n_bins == 1
        np.testing.assert_array_equal(r.bins[0], np.arange(7))

    def test_zero_overhead(self):
        assert SingleBinning().overhead_seconds(CSRMatrix.identity(7), SPEC) == 0.0


class TestRowBlockBinning:
    def test_blocks_respect_nnz_budget(self):
        m = lengths_matrix([10] * 100)
        bounds = row_blocks(m, 100)
        assert bounds[0] == 0 and bounds[-1] == 100
        for i in range(len(bounds) - 1):
            nnz = m.rowptr[bounds[i + 1]] - m.rowptr[bounds[i]]
            assert nnz <= 100 or bounds[i + 1] - bounds[i] == 1

    def test_oversized_row_is_singleton(self):
        m = lengths_matrix([5, 500, 5])
        bounds = row_blocks(m, 100)
        blocks = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)
        ]
        assert (1, 2) in blocks

    def test_partition(self):
        m = gen.quantum_chemistry_like(1_000, avg_nnz=50, seed=6)
        RowBlockBinning(block_nnz=512).bin_rows(m).validate_partition(1_000)

    def test_rejects_bad_block(self):
        with pytest.raises(BinningError):
            RowBlockBinning(block_nnz=0)
        with pytest.raises(BinningError):
            row_blocks(CSRMatrix.identity(2), 0)

    def test_overhead_cheap_no_atomics(self):
        m = gen.road_network(100_000, seed=7)
        rb = RowBlockBinning().overhead_seconds(m, SPEC)
        fine = FineBinning().overhead_seconds(m, SPEC)
        assert rb < fine


class TestPassCost:
    def test_zero_items_free(self):
        assert binning_pass_seconds(0, 0, SPEC) == 0.0

    def test_contention_dominates(self):
        spread = binning_pass_seconds(100_000, 1_000, SPEC)
        hot = binning_pass_seconds(100_000, 100_000, SPEC)
        assert hot > spread

    def test_rejects_inconsistent_contention(self):
        with pytest.raises(BinningError):
            binning_pass_seconds(10, 11, SPEC)


def test_overflow_counter_counts_binnings_not_executions():
    """Pricing and executing a plan re-derives bin ids without counting:
    the overflow counter moves once per binning."""
    from repro.core.plan import ExecutionPlan
    from repro.device import SimulatedDevice
    from repro.observe import get_registry
    from repro.serve import run_plan_spmv

    m = gen.power_law_graph(5_000, seed=0)
    scheme = CoarseBinning(10, max_bins=4)
    counter = get_registry().counter(
        "binning_overflow_virtual_rows_total", {"scheme": scheme.name}
    )
    before = counter.value
    binning = scheme.bin_rows(m)
    after_binning = counter.value
    assert after_binning > before
    plan = ExecutionPlan(
        scheme=scheme,
        binning=binning,
        bin_kernels={b: "serial" for b, _ in binning.non_empty()},
    )
    device = SimulatedDevice()
    for _ in range(5):
        run_plan_spmv(device, m, np.ones(m.ncols), plan)
        scheme.overhead_seconds(m, device.spec)
        scheme.bin_ids(m)
    assert counter.value == after_binning
