"""Tests for ``repro.solvers`` and the long-session cache semantics.

Three concerns, one suite:

- **solver correctness**: CG/BiCGSTAB/Jacobi against a direct dense
  solve, power iteration against ``eigvalsh``, plus the degenerate and
  breakdown paths (zero RHS, non-SPD CG, zero diagonal);
- **long-lived sessions**: hundreds of iterations against one server
  must build each (matrix, shard) plan exactly once on every backend,
  recover from mid-solve cache eviction, and produce bit-identical
  iterate histories across the inline and process backends;
- **invalidation semantics** (the bugs this PR fixes): ``invalidate``
  must reach the sharded layer and the process-backend workers (the
  generation token), ``clear_cache`` must empty all three caches, and
  the SLO monitor must say ``no-data`` -- not ``ok`` -- on an empty
  window.
"""

import numpy as np
import pytest

from repro.binning.single import SingleBinning
from repro.core.plan import ExecutionPlan
from repro.errors import ShapeError
from repro.formats.csr import CSRMatrix
from repro.matrices import generators as gen
from repro.observe import MetricsRegistry
from repro.serve.server import SpMVServer, heuristic_planner
from repro.shard.backend import ExecutionBackend
from repro.shard.executor import ShardingPolicy
from repro.solvers import (
    SolverSession,
    bicgstab,
    cg,
    jacobi,
    power_iteration,
    solve,
)
from repro.trace.slo import SLOMonitor, SLOTarget

from tests.chaos import build_chaos_server, chaos_seed

pytestmark = pytest.mark.solvers

BACKENDS = ("inline", "process")


def _spd(n=200, seed=7, **kw):
    return gen.spd_system(n, band=3, density=0.6, seed=seed, **kw)


def _dense(matrix):
    out = np.zeros(matrix.shape)
    for i in range(matrix.nrows):
        for k in range(matrix.rowptr[i], matrix.rowptr[i + 1]):
            out[i, matrix.colidx[k]] += matrix.val[k]
    return out


def _nonsymmetric_dominant(n=150, seed=3):
    """Strictly diagonally dominant but *not* symmetric (BiCGSTAB/Jacobi
    territory where CG has no guarantee)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    offdiag = np.zeros(n)
    for i in range(n):
        for j in rng.choice(n, size=4, replace=False):
            if j == i:
                continue
            v = float(rng.standard_normal())
            rows.append(i)
            cols.append(int(j))
            vals.append(v)
            offdiag[i] += abs(v)
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(offdiag[i] + 1.0)
    return CSRMatrix.from_coo_arrays(
        np.array(rows), np.array(cols), np.array(vals), shape=(n, n)
    )


def _counting_planner():
    """A planner that counts builds per matrix object."""
    builds = {}

    def planner(matrix):
        builds[id(matrix)] = builds.get(id(matrix), 0) + 1
        builds["total"] = builds.get("total", 0) + 1
        return heuristic_planner(matrix)

    return planner, builds


def _switchable_planner():
    """A planner whose kernel choice the test flips at runtime -- used
    to prove that a post-invalidate re-plan actually *reaches the
    workers* (a stale worker-side bound plan would keep executing the
    old kernel and report its old simulated seconds)."""
    state = {"kernel": "serial", "builds": 0}

    def planner(matrix):
        state["builds"] += 1
        binning = SingleBinning().bin_rows(matrix)
        kernels = {b: state["kernel"] for b, _ in binning.non_empty()}
        return ExecutionPlan(
            scheme=SingleBinning(), binning=binning,
            bin_kernels=kernels, source="test-switch",
        )

    return planner, state


def _sharded_server(backend, planner=None, n_shards=4, **kw):
    return SpMVServer(
        planner=planner,
        registry=MetricsRegistry(),
        sharding=ShardingPolicy(
            n_shards=n_shards, backend=ExecutionBackend(backend)
        ),
        **kw,
    )


# ----------------------------------------------------------------------
# Solver correctness
# ----------------------------------------------------------------------
class TestSolverCorrectness:
    def test_cg_matches_direct_solve(self):
        A = _spd()
        b = np.random.default_rng(1).standard_normal(A.nrows)
        with SolverSession(A) as s:
            res = cg(s, b, tol=1e-12)
        assert res.converged
        xref = np.linalg.solve(_dense(A), b)
        np.testing.assert_allclose(res.x, xref, rtol=1e-8, atol=1e-10)
        # History is monotone enough to end below the target.
        norms = [r.residual_norm for r in res.history]
        assert norms[-1] <= 1e-12 * np.linalg.norm(b)
        assert res.iterations == len(res.history)

    def test_bicgstab_nonsymmetric(self):
        A = _nonsymmetric_dominant()
        b = np.random.default_rng(2).standard_normal(A.nrows)
        with SolverSession(A) as s:
            res = bicgstab(s, b, tol=1e-10)
        assert res.converged
        xref = np.linalg.solve(_dense(A), b)
        np.testing.assert_allclose(res.x, xref, rtol=1e-6, atol=1e-8)
        # BiCGSTAB issues two SpMVs per full iteration; the session
        # must attribute them to the iteration that made them.
        assert res.history[0].spmv_calls == 2

    def test_jacobi_diagonally_dominant(self):
        A = _nonsymmetric_dominant(seed=5)
        b = np.random.default_rng(3).standard_normal(A.nrows)
        with SolverSession(A) as s:
            res = jacobi(s, b, tol=1e-10, max_iterations=3000)
        assert res.converged
        xref = np.linalg.solve(_dense(A), b)
        np.testing.assert_allclose(res.x, xref, rtol=1e-6, atol=1e-8)

    def test_power_iteration_dominant_eigenpair(self):
        A = _spd(n=120, seed=11)
        with SolverSession(A) as s:
            res = power_iteration(s, tol=1e-8, max_iterations=3000)
        assert res.converged
        lam_ref = float(np.max(np.abs(np.linalg.eigvalsh(_dense(A)))))
        assert res.eigenvalue == pytest.approx(lam_ref, rel=1e-6)
        # The iterate is a unit eigenvector of the dominant eigenvalue.
        assert np.linalg.norm(res.x) == pytest.approx(1.0)
        Av = _dense(A) @ res.x
        np.testing.assert_allclose(
            Av, res.eigenvalue * res.x, rtol=1e-5, atol=1e-6
        )

    def test_zero_rhs_converges_immediately(self):
        A = _spd(n=60)
        with SolverSession(A) as s:
            res = cg(s, np.zeros(60))
        assert res.converged and res.iterations == 0
        assert not np.any(res.x)

    def test_exact_initial_guess(self):
        A = _spd(n=80, seed=2)
        xref = np.random.default_rng(4).standard_normal(80)
        b = _dense(A) @ xref
        with SolverSession(A) as s:
            res = cg(s, b, x0=xref, tol=1e-8)
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.x, xref)

    def test_cg_stops_on_non_spd_breakdown(self):
        # -I is symmetric negative definite: p A p < 0 on step one.
        n = 32
        A = CSRMatrix.from_coo_arrays(
            np.arange(n), np.arange(n), -np.ones(n), shape=(n, n)
        )
        with SolverSession(A) as s:
            res = cg(s, np.ones(n), max_iterations=50)
        assert not res.converged
        assert res.iterations == 1  # the breakdown probe is recorded

    def test_jacobi_rejects_zero_diagonal(self):
        A = CSRMatrix.from_coo_arrays(
            np.array([0, 1]), np.array([1, 0]), np.ones(2), shape=(2, 2)
        )
        with SolverSession(A) as s:
            with pytest.raises(ValueError, match="diagonal"):
                jacobi(s, np.ones(2))

    def test_jacobi_rejects_bad_omega(self):
        with SolverSession(_spd(n=20)) as s:
            with pytest.raises(ValueError, match="omega"):
                jacobi(s, np.ones(20), omega=1.5)

    def test_power_iteration_rejects_zero_start(self):
        with SolverSession(_spd(n=20)) as s:
            with pytest.raises(ValueError, match="nonzero"):
                power_iteration(s, v0=np.zeros(20))

    def test_rejects_wrong_rhs_shape(self):
        with SolverSession(_spd(n=20)) as s:
            with pytest.raises(ShapeError, match="rhs"):
                cg(s, np.ones(21))

    def test_rejects_wrong_x0_shape(self):
        with SolverSession(_spd(n=20)) as s:
            with pytest.raises(ShapeError, match="x0"):
                cg(s, np.ones(20), x0=np.ones(19))

    def test_rejects_wrong_v0_shape(self):
        with SolverSession(_spd(n=20)) as s:
            with pytest.raises(ShapeError, match="v0"):
                power_iteration(s, v0=np.ones(19))

    def test_bicgstab_zero_rhs(self):
        with SolverSession(_spd(n=20)) as s:
            res = bicgstab(s, np.zeros(20))
        assert res.converged and res.iterations == 0

    def test_jacobi_zero_rhs(self):
        with SolverSession(_spd(n=20)) as s:
            res = jacobi(s, np.zeros(20))
        assert res.converged and res.iterations == 0

    def test_session_rejects_rectangular(self):
        A = CSRMatrix.from_coo_arrays(
            np.array([0]), np.array([0]), np.ones(1), shape=(2, 3)
        )
        with pytest.raises(ShapeError, match="square"):
            SolverSession(A)

    def test_solve_dispatcher(self):
        A = _spd(n=100, seed=9)
        b = np.random.default_rng(5).standard_normal(100)
        res = solve("cg", A, b, tol=1e-10)
        assert res.converged and res.method == "cg"
        res = solve("power", A, tol=1e-6, max_iterations=3000)
        assert res.method == "power_iteration"
        with pytest.raises(ValueError, match="unknown method"):
            solve("sor", A, b)
        with pytest.raises(ValueError, match="right-hand side"):
            solve("power", A, b)
        with pytest.raises(ValueError, match="right-hand side"):
            solve("cg", A)

    def test_solve_with_existing_session(self):
        A = _spd(n=80, seed=1)
        b = np.random.default_rng(6).standard_normal(80)
        with SolverSession(A) as s:
            r1 = solve("cg", A, b, session=s, tol=1e-10)
            r2 = solve("jacobi", A, b, session=s, tol=1e-8,
                       max_iterations=2000)
            assert r1.converged and r2.converged
            # The shared session accumulated both histories...
            assert len(s.history) == r1.iterations + r2.iterations
            # ... but each result's slice is its own.
            assert r2.history[0].index == r1.iterations
            with pytest.raises(ValueError, match="session kwargs"):
                solve("cg", A, b, session=s, sharding=None)


# ----------------------------------------------------------------------
# Session accounting
# ----------------------------------------------------------------------
class TestSolverSession:
    def test_accounting_and_slo(self):
        A = _spd(n=150, seed=4)
        b = np.random.default_rng(7).standard_normal(150)
        with SolverSession(A, slo=SLOTarget(p99=10.0)) as s:
            assert s.health_snapshot()["status"] == "no-data"
            res = cg(s, b, tol=1e-10)
            stats = s.stats()
            assert stats.iterations == res.iterations
            assert stats.spmv_calls == res.iterations  # x0=None: 1/iter
            assert stats.cache_hits == stats.spmv_calls - 1
            assert 0.0 < stats.hit_rate < 1.0
            assert stats.simulated_seconds == pytest.approx(
                sum(r.simulated_seconds for r in res.history)
            )
            health = s.health_snapshot()
            assert health["status"] == "ok"
            assert health["window"] == min(res.iterations, 512)
            assert s.residuals() == tuple(
                r.residual_norm for r in res.history
            )
            assert "iterations" in stats.describe()
            assert "converged" in res.describe()

    def test_shared_server_not_closed(self):
        A = _spd(n=50)
        server = SpMVServer(registry=MetricsRegistry())
        with SolverSession(A, server) as s:
            s.matvec(np.ones(50))
        assert not server.closed
        server.close()
        assert server.closed

    def test_owned_server_closed_on_exit(self):
        with SolverSession(_spd(n=50)) as s:
            s.matvec(np.ones(50))
        assert s.server.closed

    def test_server_and_kwargs_conflict(self):
        server = SpMVServer(registry=MetricsRegistry())
        try:
            with pytest.raises(ValueError, match="not both"):
                SolverSession(_spd(n=20), server, cache_capacity=4)
        finally:
            server.close()


# ----------------------------------------------------------------------
# Long-lived sessions: plan economy, eviction recovery, bit identity
# ----------------------------------------------------------------------
class TestLongSession:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_plan_build_per_shard_across_backends(self, backend):
        """A 250-iteration solve against a 4-shard server must build
        exactly 4 shard plans -- once per (matrix, shard) -- and serve
        every later iteration from cache."""
        A = _spd(n=240, seed=13)
        b = np.random.default_rng(8).standard_normal(240)
        planner, builds = _counting_planner()
        with _sharded_server(backend, planner) as server:
            with SolverSession(A, server) as s:
                jacobi(s, b, tol=1e-300, max_iterations=250)
                stats = s.stats()
        assert stats.iterations == 250
        assert stats.spmv_calls == 250
        # 4 shard sub-matrices, planned exactly once each.
        assert builds["total"] == 4
        # Everything after the first submit is a full cache hit.
        assert stats.cache_hits == stats.spmv_calls - 1

    def test_one_plan_build_unsharded(self):
        A = _spd(n=240, seed=13)
        b = np.random.default_rng(8).standard_normal(240)
        planner, builds = _counting_planner()
        with SpMVServer(planner=planner,
                        registry=MetricsRegistry()) as server:
            with SolverSession(A, server) as s:
                jacobi(s, b, tol=1e-300, max_iterations=250)
        assert builds["total"] == 1
        assert builds[id(A)] == 1

    def test_eviction_mid_solve_recovers(self):
        """A capacity-1 plan cache evicted mid-solve (by foreign
        traffic) forces one re-plan; the solve still converges to the
        exact direct solution."""
        A = _spd(n=160, seed=17)
        other = gen.banded(100, seed=1)
        b = np.random.default_rng(9).standard_normal(160)
        planner, builds = _counting_planner()
        with SpMVServer(planner=planner, cache_capacity=1,
                        registry=MetricsRegistry()) as server:
            with SolverSession(A, server) as s:
                partial = cg(s, b, tol=1e-12, max_iterations=5)
                assert not partial.converged
                # Foreign request evicts A's plan from the 1-slot cache.
                server.submit(other, np.ones(other.ncols))
                res = cg(s, b, x0=partial.x, tol=1e-12)
        assert res.converged
        assert builds[id(A)] == 2  # initial build + post-eviction rebuild
        xref = np.linalg.solve(_dense(A), b)
        np.testing.assert_allclose(res.x, xref, rtol=1e-8, atol=1e-10)

    def test_clear_cache_mid_solve_recovers(self):
        A = _spd(n=160, seed=19)
        b = np.random.default_rng(10).standard_normal(160)
        planner, builds = _counting_planner()
        with _sharded_server("process", planner) as server:
            with SolverSession(A, server) as s:
                cg(s, b, tol=1e-12, max_iterations=5)
                assert builds["total"] == 4
                server.clear_cache()
                res = cg(s, b, tol=1e-12)
                assert res.converged
        assert builds["total"] == 8  # all four shard plans rebuilt

    @pytest.mark.parametrize("method", ("cg", "jacobi"))
    def test_iterate_history_bit_identical_across_backends(self, method):
        """Inline and process backends produce byte-for-byte the same
        iterates and residual history."""
        A = _spd(n=220, seed=23)
        b = np.random.default_rng(11).standard_normal(220)
        runs = {}
        for backend in BACKENDS:
            with _sharded_server(backend) as server:
                with SolverSession(A, server) as s:
                    kw = {"max_iterations": 400} if method == "jacobi" \
                        else {}
                    res = solve(method, A, b, session=s, tol=1e-10, **kw)
            assert res.converged, backend
            runs[backend] = res
        base, other = runs["inline"], runs["process"]
        assert other.iterations == base.iterations
        np.testing.assert_array_equal(other.x, base.x)
        assert [r.residual_norm for r in other.history] == \
               [r.residual_norm for r in base.history]


# ----------------------------------------------------------------------
# Invalidation semantics (the bugfix satellites)
# ----------------------------------------------------------------------
class TestInvalidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalidate_reaches_shard_plans(self, backend):
        A = _spd(n=200, seed=29)
        x = np.ones(200)
        planner, builds = _counting_planner()
        with _sharded_server(backend, planner) as server:
            server.submit(A, x)
            r2 = server.submit(A, x)
            assert r2.cache_hit and builds["total"] == 4
            assert server.invalidate(A)
            r3 = server.submit(A, x)
            assert not r3.cache_hit
            assert builds["total"] == 8  # every shard re-planned
            np.testing.assert_array_equal(r3.y, r2.y)
            # A second invalidate of a now-cached entry still works;
            # invalidating an unknown matrix reports False.
            assert server.invalidate(A)
            assert not server.invalidate(gen.banded(50, seed=2))

    def test_invalidate_rebinds_process_workers(self):
        """The regression the generation token exists for: after
        ``invalidate``, warm pool workers must *execute the new plan*,
        not their cached bound plan.  The planner switches kernels
        between builds, so a stale worker would report the old plan's
        simulated seconds."""
        A = _spd(n=300, seed=31)
        x = np.ones(300)
        planner, state = _switchable_planner()
        with _sharded_server("process", planner, n_shards=2) as server:
            r_serial = server.submit(A, x)
            server.submit(A, x)  # warm the worker-side bound-plan cache
            assert state["builds"] == 2
            state["kernel"] = "vector"
            # Without invalidation the cached (stale) plan keeps serving.
            r_stale = server.submit(A, x)
            assert r_stale.cache_hit
            assert state["builds"] == 2
            server.invalidate(A)
            r_vector = server.submit(A, x)
            assert state["builds"] == 4
            np.testing.assert_array_equal(r_vector.y, r_serial.y)
        # Same matrix, different kernel: the simulated cost must change,
        # proving the workers executed the re-planned kernel.
        assert r_stale.seconds == pytest.approx(r_serial.seconds)
        assert r_vector.seconds != pytest.approx(r_serial.seconds)

    def test_clear_cache_clears_all_three_layers(self):
        A = _spd(n=200, seed=37)
        x = np.ones(200)
        planner, builds = _counting_planner()
        with _sharded_server("process", planner) as server:
            server.submit(A, x)
            server.submit(A, x)
            hashed_before = server._fingerprints.stats().hashes
            server.clear_cache()
            res = server.submit(A, x)
            assert not res.cache_hit
            # Shard plans rebuilt ...
            assert builds["total"] == 8
            # ... and the identity fast path re-hashed the structure.
            assert server._fingerprints.stats().hashes == hashed_before + 1


# ----------------------------------------------------------------------
# SLO monitor window semantics (bugfix satellite)
# ----------------------------------------------------------------------
class TestSLOWindow:
    def test_empty_window_reports_no_data(self):
        monitor = SLOMonitor(SLOTarget(p99=0.1),
                             registry=MetricsRegistry())
        snap = monitor.health_snapshot()
        assert snap["status"] == "no-data"
        assert snap["window"] == 0
        assert snap["breaching"] == []
        assert all(v != v for v in snap["quantiles"].values())  # NaN
        assert "no-data" in monitor.describe()

    def test_empty_window_without_bounds_still_no_data(self):
        monitor = SLOMonitor(registry=MetricsRegistry())
        assert monitor.health_snapshot()["status"] == "no-data"

    def test_single_observation_is_every_quantile(self):
        monitor = SLOMonitor(SLOTarget(p99=0.1),
                             registry=MetricsRegistry())
        monitor.observe(0.02)
        snap = monitor.health_snapshot()
        assert snap["status"] == "ok"
        assert snap["window"] == 1
        assert all(v == pytest.approx(0.02)
                   for v in snap["quantiles"].values())

    def test_single_breaching_observation(self):
        monitor = SLOMonitor(SLOTarget(p99=0.01),
                             registry=MetricsRegistry())
        monitor.observe(0.02)
        snap = monitor.health_snapshot()
        assert snap["status"] == "breached"
        assert snap["breaching"] == ["p99"]
        assert snap["breaches"]["p99"] == 1


# ----------------------------------------------------------------------
# Chaos acceptance: faults mid-solve never corrupt the answer
# ----------------------------------------------------------------------
class TestChaosSolve:
    def test_cg_converges_through_faults_uncorrupted(self):
        """ISSUE acceptance: a 10 % fault rate mid-solve may cost
        retries/degraded submits but the converged answer matches the
        clean run's to solver tolerance and no iterate is ever NaN/Inf."""
        A = _spd(n=180, seed=41)
        b = np.random.default_rng(12).standard_normal(180)
        tol = 1e-10

        with SolverSession(A, registry=MetricsRegistry()) as s:
            clean = cg(s, b, tol=tol)
        assert clean.converged

        server, device, _ = build_chaos_server(rate=0.1, seed=chaos_seed())
        with server:
            with SolverSession(A, server) as s:
                chaotic = cg(s, b, tol=tol)
                stats = s.stats()
        assert chaotic.converged
        assert sum(device.injected_counts().values()) > 0
        # Retries happened (the fault schedule really fired mid-solve).
        assert stats.attempts > stats.spmv_calls
        # Zero corrupted iterates: every recorded residual is finite ...
        assert all(np.isfinite(r.residual_norm) for r in chaotic.history)
        assert np.all(np.isfinite(chaotic.x))
        # ... and the answer equals the clean one to solver tolerance.
        norm_b = float(np.linalg.norm(b))
        direct = float(np.linalg.norm(b - _dense(A) @ chaotic.x))
        assert direct <= 10 * tol * norm_b
        np.testing.assert_allclose(
            chaotic.x, clean.x, rtol=1e-7, atol=1e-9
        )


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestSolveCLI:
    def test_solve_command(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--method", "cg", "--matrix", "spd:300",
                   "--shards", "2", "--backend", "inline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cg: converged" in out
        assert "residual verified  : OK" in out

    def test_solve_command_chaos_jacobi(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--method", "jacobi", "--matrix", "spd:300",
                   "--chaos", "--chaos-rate", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults injected" in out

    def test_serve_demo_solver_workload(self, capsys):
        from repro.cli import main

        rc = main(["serve-demo", "--workload", "solver",
                   "--requests", "200", "--size", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CG solve" in out
        assert "all results verified: OK" in out
