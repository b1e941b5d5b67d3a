"""Tests for the simulated executor and the real CPU path."""

import numpy as np
import pytest

from repro.binning import CoarseBinning, SingleBinning
from repro.device import (
    CPUExecutor,
    PartitionStrategy,
    SimulatedDevice,
)
from repro.device.cpu import row_partition
from repro.errors import DeviceError, ShapeError
from repro.formats import CSRMatrix
from repro.kernels import get_kernel
from repro.matrices import generators as gen


class TestSimulatedDevice:
    @pytest.fixture(scope="class")
    def problem(self):
        m = gen.bimodal_rows(3_000, short_len=3, long_len=400, seed=0)
        v = np.random.default_rng(1).standard_normal(m.ncols)
        return m, v

    def test_single_dispatch_result(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        res = dev.run_spmv(m, v, [(get_kernel("serial"), rows)])
        np.testing.assert_allclose(res.u, m @ v, atol=1e-9)
        assert res.seconds > 0
        assert res.n_dispatches == 1

    def test_binned_dispatches_result(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        binning = CoarseBinning(10).bin_rows(m)
        dispatches = [
            (get_kernel("serial" if b < 5 else "vector"), rows)
            for b, rows in binning.non_empty()
        ]
        res = dev.run_spmv(m, v, dispatches)
        np.testing.assert_allclose(res.u, m @ v, atol=1e-9)
        assert res.n_dispatches == binning.n_nonempty

    def test_launch_overhead_counted_per_dispatch(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        one = dev.run_spmv(m, v, [(get_kernel("serial"), rows)])
        halves = [
            (get_kernel("serial"), rows[: m.nrows // 2]),
            (get_kernel("serial"), rows[m.nrows // 2 :]),
        ]
        two = dev.run_spmv(m, v, halves)
        assert two.launch_seconds == pytest.approx(2 * one.launch_seconds)

    def test_coverage_check_rejects_partial(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        for partial in (np.array([0, 1]),
                        np.concatenate(([-1], rows[1:])),  # a negative row
                        np.concatenate((rows[:-1], [m.nrows]))):  # past the end
            assert len(partial) in (2, m.nrows)
            with pytest.raises(DeviceError, match="cover"):
                dev.run_spmv(m, v, [(get_kernel("serial"), partial)])

    def test_coverage_check_rejects_overlap(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        with pytest.raises(DeviceError):
            dev.run_spmv(
                m, v, [(get_kernel("serial"), rows), (get_kernel("vector"), rows[:1])]
            )
        # Row 0 twice and the last row missing: the count still equals
        # nrows, so only a check that every row is hit can catch it.
        with pytest.raises(DeviceError, match="cover"):
            dev.run_spmv(
                m, v, [(get_kernel("serial"), rows[:-1]),
                       (get_kernel("vector"), rows[:1])]
            )

    def test_extra_seconds_added(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        base = dev.run_spmv(m, v, [(get_kernel("serial"), rows)])
        extra = dev.run_spmv(
            m, v, [(get_kernel("serial"), rows)], extra_seconds=1.0
        )
        assert extra.seconds == pytest.approx(base.seconds + 1.0)

    def test_empty_dispatch_skipped(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        res = dev.run_spmv(
            m,
            v,
            [(get_kernel("serial"), rows),
             (get_kernel("vector"), np.zeros(0, dtype=np.int64))],
        )
        assert res.n_dispatches == 1

    def test_bad_vector_shape(self, problem):
        m, _ = problem
        dev = SimulatedDevice()
        with pytest.raises(ShapeError):
            dev.run_spmv(m, np.ones(3), [])

    def test_single_binning_equivalence(self, problem):
        m, v = problem
        dev = SimulatedDevice()
        binning = SingleBinning().bin_rows(m)
        res = dev.run_spmv(
            m, v, [(get_kernel("subvector8"), rows) for _, rows in binning.non_empty()]
        )
        np.testing.assert_allclose(res.u, m @ v, atol=1e-9)


class TestRowPartition:
    def test_rows_strategy_even(self):
        m = CSRMatrix.identity(10)
        bounds = row_partition(m, 2, PartitionStrategy.ROWS)
        np.testing.assert_array_equal(bounds, [0, 5, 10])

    def test_nnz_strategy_balances(self):
        # one heavy row at the front: NNZ strategy puts it alone-ish.
        lengths = np.array([100] + [1] * 99)
        m = CSRMatrix.from_row_lengths(lengths, 128, rng=np.random.default_rng(0))
        bounds = row_partition(m, 2, PartitionStrategy.NNZ)
        first_chunk_nnz = int(m.rowptr[bounds[1]] - m.rowptr[bounds[0]])
        assert first_chunk_nnz <= 110

    def test_bounds_monotone_and_complete(self):
        m = gen.power_law_graph(1_000, avg_degree=6, seed=0)
        for strat in PartitionStrategy:
            bounds = row_partition(m, 7, strat)
            assert bounds[0] == 0 and bounds[-1] == m.nrows
            assert np.all(np.diff(bounds) >= 0)

    def test_rejects_zero_chunks(self):
        with pytest.raises(ValueError):
            row_partition(CSRMatrix.identity(4), 0, PartitionStrategy.ROWS)


class TestCPUExecutor:
    @pytest.fixture(scope="class")
    def problem(self):
        m = gen.quantum_chemistry_like(2_000, avg_nnz=30, seed=3)
        v = np.random.default_rng(4).standard_normal(m.ncols)
        return m, v

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_parallel_matches_reference(self, problem, strategy):
        m, v = problem
        with CPUExecutor(n_threads=4) as ex:
            out = ex.spmv(m, v, strategy=strategy)
        np.testing.assert_allclose(out, m @ v, atol=1e-9)

    def test_serial_matches_reference(self, problem):
        m, v = problem
        out = CPUExecutor(n_threads=1).spmv_serial(m, v)
        np.testing.assert_allclose(out, m @ v, atol=1e-9)

    def test_empty_matrix(self):
        m = CSRMatrix.empty((0, 3))
        with CPUExecutor(2) as ex:
            assert len(ex.spmv(m, np.ones(3))) == 0

    def test_matrix_with_empty_rows(self):
        m = CSRMatrix.from_dense(
            np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        )
        v = np.array([1.0, 1.0])
        with CPUExecutor(2) as ex:
            np.testing.assert_allclose(ex.spmv(m, v), [0, 3, 0, 3])

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            CPUExecutor(0)

    def test_rejects_bad_vector(self, problem):
        m, _ = problem
        with pytest.raises(ShapeError):
            CPUExecutor(2).spmv(m, np.ones(3))
        with pytest.raises(ShapeError):
            CPUExecutor(2).spmv_serial(m, np.ones(3))

    def test_pool_reuse_without_context(self, problem):
        m, v = problem
        ex = CPUExecutor(2)
        a = ex.spmv(m, v)
        b = ex.spmv(m, v)
        np.testing.assert_allclose(a, b)
        ex.__exit__()

    def test_use_after_context_exit_raises(self, problem):
        m, v = problem
        with CPUExecutor(2) as ex:
            ex.spmv(m, v)
        assert ex.closed
        with pytest.raises(DeviceError, match="close"):
            ex.spmv(m, v)
        with pytest.raises(DeviceError, match="close"):
            ex.spmm(m, np.ones((m.ncols, 2)))

    def test_use_after_explicit_close_raises(self, problem):
        m, v = problem
        ex = CPUExecutor(2)
        ex.spmv(m, v)
        ex.close()
        ex.close()  # idempotent
        assert ex.closed
        with pytest.raises(DeviceError):
            ex.spmv(m, v)

    def test_reentering_closed_executor_raises(self):
        ex = CPUExecutor(2)
        ex.close()
        with pytest.raises(DeviceError):
            ex.__enter__()

    def test_spmv_serial_still_works_after_close(self, problem):
        # The serial path owns no pool; close() must not break it.
        m, v = problem
        ex = CPUExecutor(2)
        ex.close()
        np.testing.assert_allclose(ex.spmv_serial(m, v), m @ v, atol=1e-9)


class TestSimulatedBatched:
    @pytest.fixture(scope="class")
    def problem(self):
        m = gen.bimodal_rows(1_500, short_len=3, long_len=200, seed=5)
        X = np.random.default_rng(6).standard_normal((m.ncols, 6))
        return m, X

    def test_columns_match_single_vector_runs(self, problem):
        m, X = problem
        dev = SimulatedDevice()
        rows = np.arange(m.nrows)
        dispatches = [(get_kernel("subvector8"), rows)]
        batch = dev.run_spmm(m, X, dispatches)
        for j in range(X.shape[1]):
            single = dev.run_spmv(m, X[:, j], dispatches)
            np.testing.assert_array_equal(batch.U[:, j], single.u)

    def test_launch_overhead_charged_once_per_batch(self, problem):
        m, X = problem
        dev = SimulatedDevice()
        dispatches = [(get_kernel("vector"), np.arange(m.nrows))]
        batch = dev.run_spmm(m, X, dispatches)
        single = dev.run_spmv(m, X[:, 0], dispatches)
        assert batch.launch_seconds == pytest.approx(single.launch_seconds)
        assert batch.n_dispatches == 1
        assert batch.n_rhs == X.shape[1]

    def test_batch_cheaper_than_k_singles(self, problem):
        m, X = problem
        dev = SimulatedDevice()
        dispatches = [(get_kernel("vector"), np.arange(m.nrows))]
        batch = dev.run_spmm(m, X, dispatches)
        single = dev.run_spmv(m, X[:, 0], dispatches)
        assert batch.seconds < X.shape[1] * single.seconds

    def test_coverage_check_applies(self, problem):
        m, X = problem
        dev = SimulatedDevice()
        with pytest.raises(DeviceError, match="cover"):
            dev.run_spmm(m, X, [(get_kernel("serial"), np.array([0, 1]))])

    def test_rejects_bad_operand_shape(self, problem):
        m, _ = problem
        dev = SimulatedDevice()
        with pytest.raises(ShapeError):
            dev.run_spmm(m, np.ones((m.ncols + 1, 2)),
                         [(get_kernel("serial"), np.arange(m.nrows))])
        with pytest.raises(ShapeError):
            dev.run_spmm(m, np.ones(m.ncols),
                         [(get_kernel("serial"), np.arange(m.nrows))])
