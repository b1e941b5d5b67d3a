"""Tests for the SpMM (multi-vector) extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import CPUExecutor, PartitionStrategy, SimulatedDevice
from repro.device.executor import SpMMResult, SpMVResult
from repro.errors import ShapeError
from repro.formats import CSRMatrix
from repro.matrices import generators as gen
from repro.observe import MetricsRegistry
from repro.serve import SpMVServer, heuristic_planner, run_plan_spmm
from repro.shard import ShardingPolicy


def _random_csr(m, n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    return CSRMatrix.from_dense(dense)


class TestMatmatReference:
    def test_matches_dense(self):
        a = _random_csr(12, 9, 0.4, 0)
        b = np.random.default_rng(1).standard_normal((9, 5))
        np.testing.assert_allclose(a.matmat_reference(b), a.to_dense() @ b,
                                   atol=1e-12)

    def test_matmul_operator_dispatches(self):
        a = _random_csr(6, 6, 0.5, 2)
        b = np.random.default_rng(3).standard_normal((6, 3))
        v = np.random.default_rng(4).standard_normal(6)
        np.testing.assert_allclose(a @ b, a.matmat_reference(b))
        np.testing.assert_allclose(a @ v, a.matvec_reference(v))

    def test_rejects_bad_shapes(self):
        a = CSRMatrix.identity(4)
        with pytest.raises(ShapeError):
            a.matmat_reference(np.ones((3, 2)))

    def test_single_column_agrees_with_matvec(self):
        a = _random_csr(10, 8, 0.3, 5)
        v = np.random.default_rng(6).standard_normal(8)
        np.testing.assert_allclose(
            a.matmat_reference(v[:, None]).ravel(), a @ v, atol=1e-12
        )


class TestCPUSpMM:
    @pytest.fixture(scope="class")
    def pool(self):
        with CPUExecutor(n_threads=3) as ex:
            yield ex

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_matches_reference(self, pool, strategy):
        a = gen.quantum_chemistry_like(1_500, avg_nnz=25, seed=7)
        b = np.random.default_rng(8).standard_normal((a.ncols, 6))
        out = pool.spmm(a, b, strategy=strategy)
        np.testing.assert_allclose(out, a @ b, atol=1e-9)

    def test_empty_rows_zero(self, pool):
        a = CSRMatrix.from_dense(
            np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        )
        b = np.ones((2, 4))
        out = pool.spmm(a, b)
        np.testing.assert_allclose(out, [[0] * 4, [3] * 4, [0] * 4])

    def test_zero_columns(self, pool):
        a = CSRMatrix.identity(3)
        out = pool.spmm(a, np.zeros((3, 0)))
        assert out.shape == (3, 0)

    def test_empty_matrix(self, pool):
        out = pool.spmm(CSRMatrix.empty((0, 4)), np.ones((4, 2)))
        assert out.shape == (0, 2)

    def test_rejects_bad_operand(self, pool):
        a = CSRMatrix.identity(3)
        with pytest.raises(ShapeError):
            pool.spmm(a, np.ones(3))
        with pytest.raises(ShapeError):
            pool.spmm(a, np.ones((4, 2)))

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.05, max_value=0.7),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_matches_dense(self, pool, m, n, k, density, seed):
        a = _random_csr(m, n, density, seed)
        b = np.random.default_rng(seed ^ 0x77).standard_normal((n, k))
        out = pool.spmm(a, b)
        np.testing.assert_allclose(out, a.to_dense() @ b, atol=1e-9)


# -- the simulated device: one result type, one entry point ------------
def _dispatch_records(registry: MetricsRegistry) -> float:
    return sum(c["value"] for c in registry.snapshot()["counters"]
               if c["name"] == "device_dispatches_total")


class TestSimulatedDeviceRun:
    def _bound(self, m):
        device = SimulatedDevice(registry=MetricsRegistry())
        return device, heuristic_planner(m).bind(device, m)

    def test_operand_shape_picks_the_entry_point(self):
        calls = []

        class Counting(SimulatedDevice):
            def run_spmv(self, *args, **kwargs):
                calls.append("spmv")
                return super().run_spmv(*args, **kwargs)

            def run_spmm(self, *args, **kwargs):
                calls.append("spmm")
                return super().run_spmm(*args, **kwargs)

        m = gen.banded(200, avg_nnz=8.0, seed=0)
        device = Counting(registry=MetricsRegistry())
        bound = heuristic_planner(m).bind(device, m)
        rng = np.random.default_rng(5)
        x, X = rng.standard_normal(m.ncols), rng.standard_normal((m.ncols, 3))
        one = device.run(m, x, bound)
        block = device.run(m, X, bound, max_rhs=2)
        assert calls == ["spmv", "spmm"]
        assert one.y.tobytes() == device.run_spmv(m, x, bound).y.tobytes()
        assert (one.n_rhs, one.n_passes) == (1, 1)
        assert (block.n_rhs, block.n_passes) == (3, 2)
        assert one.u is one.y and block.U is block.y
        assert SpMMResult is SpMVResult

    def test_max_rhs_must_be_positive_only_to_split(self):
        m = gen.banded(200, avg_nnz=8.0, seed=0)
        device, bound = self._bound(m)
        empty = device.run_spmm(m, np.zeros((m.ncols, 0)), bound, max_rhs=0)
        assert empty.n_passes == 0
        with pytest.raises(ValueError):
            device.run_spmm(m, np.ones((m.ncols, 3)), bound, max_rhs=0)


@pytest.mark.parametrize("path", ["device", "plain", "inline", "process"])
def test_zero_column_block_runs_no_pass(path):
    """k = 0 launches nothing and costs only the plan's extra overhead."""
    m = gen.banded(200, avg_nnz=8.0, seed=0)
    registry = MetricsRegistry()
    empty = np.zeros((m.ncols, 0))
    if path == "device":
        device = SimulatedDevice(registry=registry)
        res = run_plan_spmm(device, m, empty, heuristic_planner(m))
        assert (res.n_rhs, res.n_passes) == (0, 0)
    else:
        sharding = (None if path == "plain"
                    else ShardingPolicy(n_shards=2, backend=path))
        with SpMVServer(registry=registry, sharding=sharding,
                        max_rhs=2) as server:
            res = server.submit_batch(m, empty)
            assert server.stats().kernel_launches == 0
    assert res.y.shape == (m.nrows, 0)
    assert res.n_dispatches == 0
    # The heuristic plan is single-bin: no binning overhead either.
    assert res.seconds == 0.0
    assert _dispatch_records(registry) == 0


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, "2", True])
def test_server_rejects_bad_max_rhs_when_built(bad):
    """A cap the device could never split at fails at construction, not
    on the first wide ``submit_batch`` after fingerprinting and planning."""
    with pytest.raises(ValueError, match="max_rhs"):
        SpMVServer(max_rhs=bad)


@pytest.mark.parametrize("good", [1, np.int64(2)])
def test_server_accepts_a_positive_integer_max_rhs(good):
    m = gen.banded(60, avg_nnz=4.0, seed=0)
    X = np.ones((m.ncols, 3))
    with SpMVServer(max_rhs=good, registry=MetricsRegistry()) as server:
        res = server.submit_batch(m, X)
    np.testing.assert_allclose(res.y, m @ X, rtol=1e-12)
