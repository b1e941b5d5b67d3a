"""Property tests for the serving layer (fingerprint, cache, server)."""

import gc
import hashlib

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan
from repro.device import SimulatedDevice
from repro.device.executor import SpMMResult
from repro.errors import DeviceError, ShapeError
from repro.formats import CSRMatrix
from repro.matrices import generators as gen
from repro.observe import NULL_REGISTRY
from repro.serve import (
    FingerprintCache,
    PlanCache,
    SpMVServer,
    fingerprint_matrix,
    run_plan_spmm,
    run_plan_spmv,
)
from repro.serve.server import heuristic_planner
from tests.differential import assert_matches_reference, make_rhs


def _matrix(seed=0, nrows=300, ncols=300):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 12, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, ncols, rng=rng)


def _revalued(m: CSRMatrix, seed=99) -> CSRMatrix:
    """Same sparsity pattern, completely different values."""
    rng = np.random.default_rng(seed)
    return CSRMatrix(m.rowptr, m.colidx, rng.standard_normal(m.nnz), m.shape)


class TestFingerprint:
    def test_deterministic(self):
        m = _matrix(0)
        assert fingerprint_matrix(m) == fingerprint_matrix(m)

    def test_value_change_preserves_fingerprint(self):
        # Iterative solvers re-submit one pattern with evolving values;
        # the fingerprint must not see them.
        m = _matrix(1)
        assert fingerprint_matrix(m) == fingerprint_matrix(_revalued(m))

    def test_pattern_change_changes_fingerprint(self):
        m = _matrix(2)
        colidx = m.colidx.copy()
        colidx[0] = (colidx[0] + 1) % m.ncols
        if colidx[0] == m.colidx[0]:  # pragma: no cover - ncols > 1 here
            colidx[0] = (colidx[0] + 1) % m.ncols
        other = CSRMatrix(m.rowptr, colidx, m.val, m.shape)
        assert fingerprint_matrix(m) != fingerprint_matrix(other)

    def test_row_structure_change_changes_fingerprint(self):
        rng = np.random.default_rng(3)
        a = CSRMatrix.from_row_lengths(np.array([2, 2]), 8, rng=rng)
        b = CSRMatrix(np.array([0, 4, 4]), a.colidx, a.val, a.shape)
        assert fingerprint_matrix(a) != fingerprint_matrix(b)

    def test_shape_enters_fingerprint(self):
        m = _matrix(4, nrows=50, ncols=60)
        wider = CSRMatrix(m.rowptr, m.colidx, m.val, (m.nrows, m.ncols + 7))
        assert fingerprint_matrix(m) != fingerprint_matrix(wider)

    def test_fingerprint_is_hashable_key(self):
        m = _matrix(5)
        d = {fingerprint_matrix(m): "plan"}
        assert d[fingerprint_matrix(_revalued(m))] == "plan"

    def test_digest_is_sha256_of_shape_and_index_arrays(self):
        """SHA-256 over the int64 shape, then rowptr and colidx, cut to
        its first 16 bytes."""
        for m in (_matrix(6, nrows=40, ncols=70), CSRMatrix.empty((0, 3)),
                  CSRMatrix.identity(3)):
            stream = (np.asarray(m.shape, dtype=np.int64).tobytes()
                      + m.rowptr.astype(np.int64).tobytes()
                      + m.colidx.astype(np.int64).tobytes())
            assert fingerprint_matrix(m).digest == (
                hashlib.sha256(stream).digest()[:16].hex())
        assert fingerprint_matrix(CSRMatrix.identity(3)).digest == (
            "31a0a862c1729acbc2a770cd108e8c9a")


class TestFingerprintIdentity:
    def test_one_hash_for_repeated_identical_submits(self):
        matrix = gen.power_law_graph(300, seed=0)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            for _ in range(5):
                server.submit(matrix, x)
            stats = server.stats().fingerprints
            assert stats.hashes == 1
            assert stats.identity_hits == 4

    def test_value_mutation_served_correctly_without_rehash(self):
        matrix = gen.power_law_graph(300, seed=1)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            y0 = server.submit(matrix, x).y
            matrix.val[:] = matrix.val * 3.0
            y1 = server.submit(matrix, x).y
            assert np.allclose(y1, 3.0 * y0)
            assert_matches_reference(y1, matrix, x)
            # Structure did not change, so neither did the hash count.
            assert server.stats().fingerprints.hashes == 1

    def test_invalidate_forces_rehash(self):
        matrix = gen.power_law_graph(300, seed=2)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            server.submit(matrix, x)
            server.invalidate(matrix)
            server.submit(matrix, x)
            stats = server.stats().fingerprints
            assert stats.invalidations == 1
            assert stats.hashes == 2

    def test_identity_requires_the_same_arrays(self):
        matrix = gen.power_law_graph(300, seed=3)
        clone = type(matrix)(
            matrix.rowptr.copy(), matrix.colidx.copy(),
            matrix.val.copy(), matrix.shape,
        )
        cache = FingerprintCache()
        fp_a = cache.fingerprint(matrix)
        fp_b = cache.fingerprint(clone)
        assert fp_a.digest == fp_b.digest
        # The clone misses the identity tier; the structure tier, not a
        # second hash, recognises it.
        stats = cache.stats()
        assert stats.identity_hits == 0
        assert stats.hashes == 1
        assert stats.structure_hits == 1

    def test_dead_matrices_are_evicted(self):
        cache = FingerprintCache()
        matrix = gen.power_law_graph(200, seed=4)
        cache.fingerprint(matrix)
        assert cache.stats().size == 1
        del matrix
        gc.collect()
        assert cache.stats().size == 0


def _copy(m: CSRMatrix) -> CSRMatrix:
    """The same structure as a new object with copied index arrays."""
    return CSRMatrix(m.rowptr.copy(), m.colidx.copy(), m.val, m.shape)


def _shifted_colidx(m: CSRMatrix) -> np.ndarray:
    """``m.colidx`` with its first column index moved by one."""
    colidx = m.colidx.copy()
    colidx[0] = (colidx[0] + 1) % m.ncols
    return colidx


class TestStructureTier:
    """Fresh objects of a structure seen recently skip the hash."""

    def test_fresh_copies_hash_once(self):
        m = _matrix(40)
        cache = FingerprintCache()
        fps = [cache.fingerprint(_copy(m)) for _ in range(5)]
        assert fps == [fingerprint_matrix(m)] * 5
        stats = cache.stats()
        assert (stats.hashes, stats.structure_hits) == (1, 4)
        assert stats.identity_hits == 0
        assert stats.structures == 1
        assert stats.hit_rate == pytest.approx(0.8)

    def test_structure_hit_records_the_identity(self):
        m = _matrix(41)
        cache = FingerprintCache()
        cache.fingerprint(m)
        fresh = _copy(m)
        cache.fingerprint(fresh)
        cache.fingerprint(fresh)
        stats = cache.stats()
        assert (stats.hashes, stats.structure_hits,
                stats.identity_hits) == (1, 1, 1)

    def test_equal_key_different_colidx_hashes_both(self):
        a = _matrix(42)
        b = CSRMatrix(a.rowptr.copy(), _shifted_colidx(a), a.val, a.shape)
        cache = FingerprintCache()
        fp_a, fp_b = cache.fingerprint(a), cache.fingerprint(b)
        assert cache.stats().hashes == 2
        assert cache.stats().structure_hits == 0
        assert fp_a.digest != fp_b.digest
        assert fp_a == fingerprint_matrix(a)
        assert fp_b == fingerprint_matrix(b)

    def test_stored_structure_survives_in_place_mutation(self):
        a = _matrix(43)
        original = _copy(a)
        cache = FingerprintCache()
        cache.fingerprint(a)
        a.colidx[:] = _shifted_colidx(a)
        mutated = _copy(a)
        assert cache.fingerprint(mutated) == fingerprint_matrix(mutated)
        assert cache.fingerprint(_copy(original)) == fingerprint_matrix(
            original
        )
        assert fingerprint_matrix(mutated) != fingerprint_matrix(original)

    def test_capacity_bounds_the_store(self):
        ms = [_matrix(44 + i) for i in range(3)]
        cache = FingerprintCache(capacity=2)
        for _ in range(3):
            for m in ms:
                assert cache.fingerprint(_copy(m)) == fingerprint_matrix(m)
                assert cache.stats().structures <= 2
        assert cache.stats().hashes == 9
        assert cache.stats().structure_hits == 0
        with pytest.raises(ValueError):
            FingerprintCache(capacity=0)

    def test_server_bounds_the_store_at_cache_capacity(self):
        ms = [_matrix(47 + i, nrows=80, ncols=80) for i in range(4)]
        with SpMVServer(cache_capacity=3, registry=NULL_REGISTRY) as server:
            for m in ms:
                server.submit(_copy(m), np.ones(m.ncols))
            assert server.stats().fingerprints.structures == 3
            server.submit(_copy(ms[-1]), np.ones(ms[-1].ncols))
            assert server.stats().fingerprints.structure_hits == 1

    @pytest.mark.parametrize("target", ["original", "copy"])
    def test_invalidate_drops_the_stored_structure(self, target):
        m = _matrix(51, nrows=80, ncols=80)
        x = np.ones(m.ncols)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            server.submit(m, x)
            server.submit(_copy(m), x)
            assert server.stats().fingerprints.hashes == 1
            server.invalidate(m if target == "original" else _copy(m))
            res = server.submit(_copy(m), x)
            assert res.fingerprint == fingerprint_matrix(m)
            assert server.stats().fingerprints.hashes == 2

    def test_clear_cache_and_close_empty_the_store(self):
        m = _matrix(52, nrows=80, ncols=80)
        x = np.ones(m.ncols)
        server = SpMVServer(registry=NULL_REGISTRY)
        server.submit(_copy(m), x)
        server.clear_cache()
        assert server.stats().fingerprints.structures == 0
        server.submit(_copy(m), x)
        assert server.stats().fingerprints.hashes == 2
        server.close()
        stats = server.stats().fingerprints
        assert (stats.structures, stats.size) == (0, 0)
        # invalidate() fingerprints its argument: a copy now re-hashes.
        server.invalidate(_copy(m))
        assert server.stats().fingerprints.hashes == 3

    def test_concurrent_fresh_copies_keep_counts_and_bound(self):
        # Eight threads churn four structures through a two-entry store,
        # with a tiny switch interval: no count may be lost, no stored
        # fingerprint may be wrong, and the bound must hold.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        ms = [_matrix(54 + i, nrows=80, ncols=80) for i in range(4)]
        expected = [fingerprint_matrix(m) for m in ms]
        cache = FingerprintCache(capacity=2)
        threads, rounds = 8, 60

        def client(t: int) -> None:
            for r in range(rounds):
                i = (t + r) % len(ms)
                m = _copy(ms[i]) if r % 3 else ms[i]
                assert cache.fingerprint(m) == expected[i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(client, t) for t in range(threads)]
                for f in futures:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert (stats.hashes + stats.structure_hits + stats.identity_hits
                == threads * rounds)
        assert stats.structures <= 2

    def test_describe_reports_both_tiers(self):
        m = _matrix(53, nrows=80, ncols=80)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            server.submit(m, np.ones(m.ncols))
            server.submit(m, np.ones(m.ncols))
            server.submit(_copy(m), np.ones(m.ncols))
            text = server.stats().describe()
        assert ("1 identity hits / 1 structure hits / 1 hashes "
                "(hit rate 66.7%, 1 structures stored)") in text


class TestPlanCache:
    def _plan(self, m):
        return heuristic_planner(m)

    def test_get_miss_returns_none_and_counts(self):
        cache = PlanCache(capacity=4)
        assert cache.get(fingerprint_matrix(_matrix(0))) is None
        s = cache.stats()
        assert (s.hits, s.misses) == (0, 1)
        assert s.hit_rate == 0.0

    def test_hit_returns_same_plan_object(self):
        cache = PlanCache(capacity=4)
        m = _matrix(1)
        fp = fingerprint_matrix(m)
        plan = self._plan(m)
        cache.put(fp, plan)
        assert cache.get(fp) is plan
        # And via a fingerprint computed from a revalued twin.
        assert cache.get(fingerprint_matrix(_revalued(m))) is plan

    def test_eviction_respects_capacity(self):
        cache = PlanCache(capacity=3)
        mats = [_matrix(seed) for seed in range(6)]
        for m in mats:
            cache.put(fingerprint_matrix(m), self._plan(m))
        assert len(cache) == 3
        assert cache.stats().evictions == 3
        # Oldest three are gone, newest three are present.
        for m in mats[:3]:
            assert fingerprint_matrix(m) not in cache
        for m in mats[3:]:
            assert fingerprint_matrix(m) in cache

    def test_lru_order_recently_used_survives(self):
        cache = PlanCache(capacity=2)
        a, b, c = (_matrix(s) for s in range(3))
        fa, fb, fc = (fingerprint_matrix(m) for m in (a, b, c))
        cache.put(fa, self._plan(a))
        cache.put(fb, self._plan(b))
        assert cache.get(fa) is not None  # refresh a; b is now LRU
        cache.put(fc, self._plan(c))
        assert fa in cache and fc in cache and fb not in cache

    def test_get_or_build_builds_once(self):
        cache = PlanCache(capacity=4)
        m = _matrix(2)
        fp = fingerprint_matrix(m)
        calls = []

        def builder():
            calls.append(1)
            return self._plan(m)

        p1, hit1 = cache.get_or_build(fp, builder)
        p2, hit2 = cache.get_or_build(fp, builder)
        assert (hit1, hit2) == (False, True)
        assert p1 is p2
        assert len(calls) == 1

    def test_invalidate(self):
        cache = PlanCache(capacity=4)
        m = _matrix(3)
        fp = fingerprint_matrix(m)
        cache.put(fp, self._plan(m))
        assert cache.invalidate(fp) is True
        assert cache.invalidate(fp) is False
        assert cache.get(fp) is None

    def test_clear_keeps_counters(self):
        cache = PlanCache(capacity=4)
        m = _matrix(4)
        fp = fingerprint_matrix(m)
        cache.put(fp, self._plan(m))
        cache.get(fp)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestServer:
    def test_repeated_submit_skips_planning(self):
        planned = []

        def counting_planner(matrix):
            planned.append(matrix)
            return heuristic_planner(matrix)

        server = SpMVServer(planner=counting_planner)
        m = _matrix(0)
        rng = np.random.default_rng(1)
        results = [
            server.submit(m, rng.standard_normal(m.ncols)) for _ in range(5)
        ]
        assert len(planned) == 1  # planner consulted exactly once
        assert [r.cache_hit for r in results] == [False] + [True] * 4
        stats = server.stats()
        assert stats.cache.misses == 1 and stats.cache.hits == 4
        assert results[1].plan is results[0].plan

    def test_revalued_matrix_hits_same_plan(self):
        server = SpMVServer()
        m = _matrix(1)
        x = np.random.default_rng(2).standard_normal(m.ncols)
        first = server.submit(m, x)
        second = server.submit(_revalued(m), x)
        assert second.cache_hit and second.plan is first.plan

    def test_submit_batch_equals_k_submits(self):
        server = SpMVServer()
        m = gen.power_law_graph(800, seed=3)
        X = np.random.default_rng(4).standard_normal((m.ncols, 8))
        batch = server.submit_batch(m, X)
        for j in range(8):
            single = server.submit(m, X[:, j])
            np.testing.assert_array_equal(batch.y[:, j], single.y)

    def test_batch_issues_one_dispatch_sequence(self):
        server = SpMVServer()
        m = _matrix(5)
        X = np.random.default_rng(6).standard_normal((m.ncols, 8))
        before = server.stats().dispatch_sequences
        res = server.submit_batch(m, X)
        stats = server.stats()
        assert stats.dispatch_sequences == before + 1
        assert res.n_dispatches == res.plan.n_launches
        assert stats.kernel_launches == res.plan.n_launches
        assert stats.rhs_served == 8 and stats.batch_requests == 1

    def test_batch_cheaper_than_k_singles(self):
        # The amortisation claim: one 8-wide sequence is accounted less
        # simulated time than eight single dispatch sequences.
        server = SpMVServer()
        m = gen.power_law_graph(2_000, seed=7)
        X = np.random.default_rng(8).standard_normal((m.ncols, 8))
        batch = server.submit_batch(m, X)
        single = server.submit(m, X[:, 0])
        assert batch.seconds < 8 * single.seconds

    def test_eviction_respects_capacity_end_to_end(self):
        server = SpMVServer(cache_capacity=2)
        mats = [_matrix(seed, nrows=60, ncols=60) for seed in range(4)]
        for m in mats:
            server.submit(m, np.ones(m.ncols))
        stats = server.stats()
        assert stats.cache.size == 2
        assert stats.cache.evictions == 2

    def test_invalidate_forces_replan(self):
        server = SpMVServer()
        m = _matrix(9)
        x = np.ones(m.ncols)
        server.submit(m, x)
        assert server.invalidate(m) is True
        res = server.submit(m, x)
        assert res.cache_hit is False

    def test_max_rhs_chunking_matches_unchunked(self):
        m = _matrix(10)
        X = np.random.default_rng(11).standard_normal((m.ncols, 7))
        plan = heuristic_planner(m)
        dev = SimulatedDevice()
        whole = run_plan_spmm(dev, m, X, plan)
        chunked = run_plan_spmm(dev, m, X, plan, max_rhs=3)
        np.testing.assert_array_equal(whole.U, chunked.U)
        assert isinstance(chunked, SpMMResult) and chunked.n_rhs == 7

    def test_chunked_accounting_vs_unchunked(self):
        """Per-pass launch charge is physical; binning overhead is not.

        k=7 under max_rhs=3 takes ceil(7/3)=3 passes: each pass re-pays
        the plan's kernel launches (a capped-width device cannot launch
        over columns it never holds), while the inspector's binning
        overhead is charged once for the whole block in both paths.
        """
        m = _matrix(10)
        X = np.random.default_rng(11).standard_normal((m.ncols, 7))
        plan = heuristic_planner(m)
        dev = SimulatedDevice()
        whole = run_plan_spmm(dev, m, X, plan)
        chunked = run_plan_spmm(dev, m, X, plan, max_rhs=3)
        assert whole.n_passes == 1
        assert chunked.n_passes == 3
        assert chunked.n_dispatches == chunked.n_passes * whole.n_dispatches
        assert chunked.launch_seconds == pytest.approx(
            chunked.n_passes * whole.launch_seconds
        )
        overhead_whole = (
            whole.seconds - sum(whole.dispatch_seconds) - whole.launch_seconds
        )
        overhead_chunked = (
            chunked.seconds
            - sum(chunked.dispatch_seconds)
            - chunked.launch_seconds
        )
        assert overhead_chunked == pytest.approx(overhead_whole)

    def test_run_plan_spmv_matches_reference(self):
        m = _matrix(12)
        x = np.random.default_rng(13).standard_normal(m.ncols)
        plan = heuristic_planner(m)
        res = run_plan_spmv(SimulatedDevice(), m, x, plan)
        np.testing.assert_allclose(res.u, m @ x, atol=1e-9)

    def test_batch_rejects_bad_shape(self):
        server = SpMVServer()
        m = _matrix(14)
        with pytest.raises(ShapeError):
            server.submit_batch(m, np.ones((m.ncols + 1, 4)))

    def test_heuristic_planner_handles_empty_matrix(self):
        m = CSRMatrix.empty((5, 5))
        plan = heuristic_planner(m)
        assert isinstance(plan, ExecutionPlan)
        server = SpMVServer()
        res = server.submit(m, np.ones(5))
        np.testing.assert_array_equal(res.y, np.zeros(5))

    def test_stage_seconds_accumulate(self):
        server = SpMVServer()
        m = _matrix(15)
        server.submit(m, np.ones(m.ncols))
        stats = server.stats()
        assert set(stats.stage_seconds) == {"fingerprint", "plan", "execute"}
        assert all(v >= 0.0 for v in stats.stage_seconds.values())
        assert "hit rate" in stats.describe()


class TestConcurrency:
    """The serving path must hold its invariants under parallel clients."""

    def test_concurrent_submit_invariants(self):
        from concurrent.futures import ThreadPoolExecutor

        server = SpMVServer(cache_capacity=8)
        patterns = [_matrix(seed=s, nrows=120, ncols=120) for s in range(5)]
        n_workers, per_worker = 8, 12

        def client(wid):
            rng = np.random.default_rng(wid)
            ok = True
            for i in range(per_worker):
                m = patterns[(wid + i) % len(patterns)]
                x = rng.standard_normal(m.ncols)
                res = server.submit(m, x)
                ok &= bool(np.allclose(res.y, m @ x, atol=1e-8))
            return ok

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            assert all(pool.map(client, range(n_workers)))

        stats = server.stats()
        total = n_workers * per_worker
        assert stats.requests == total
        assert stats.rhs_served == total
        assert stats.dispatch_sequences == total
        assert stats.cache.hits + stats.cache.misses == total
        # get_or_build holds the cache lock across the builder, so each
        # distinct pattern is planned exactly once even when its first
        # requests race.
        assert stats.cache.misses == len(patterns)
        assert stats.cache.size == len(patterns)
        assert stats.cache.size <= 8
        assert stats.cache.evictions == 0

    def test_concurrent_eviction_pressure(self):
        """Capacity smaller than the working set: size stays bounded and
        the hit/miss/eviction ledger stays consistent."""
        from concurrent.futures import ThreadPoolExecutor

        capacity = 3
        server = SpMVServer(cache_capacity=capacity)
        patterns = [_matrix(seed=s, nrows=80, ncols=80) for s in range(6)]

        def client(wid):
            for i in range(10):
                m = patterns[(wid * 3 + i) % len(patterns)]
                server.submit(m, np.ones(m.ncols))

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(client, range(6)))

        stats = server.stats()
        assert stats.requests == 60
        assert stats.cache.hits + stats.cache.misses == 60
        assert stats.cache.size <= capacity
        # every plan beyond capacity must have evicted something
        assert stats.cache.evictions == stats.cache.misses - stats.cache.size

    def test_concurrent_coalescing_matches_sequential(self):
        """N threads on one fingerprint: bit-identical to sequential
        ``submit`` and exactly one plan build."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.shard import CoalescePolicy

        m = _matrix(seed=20, nrows=150, ncols=150)
        rng = np.random.default_rng(21)
        xs = [rng.standard_normal(m.ncols) for _ in range(24)]
        reference = SpMVServer()
        expected = [reference.submit(m, x).y for x in xs]

        with SpMVServer(
            scheduler=CoalescePolicy(max_batch=6, max_wait_seconds=0.2)
        ) as server:
            with ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(lambda x: server.submit(m, x), xs))
            stats = server.stats()

        for res, want in zip(results, expected):
            # Batched kernels compute every column independently, so
            # the coalesced result is the sequential result, bit for
            # bit -- not merely close.
            np.testing.assert_array_equal(res.y, want)
        # One fingerprint, many concurrent first requests: the cache
        # lock makes exactly one of them build the plan.
        assert stats.cache.misses == 1
        assert stats.scheduler is not None
        assert stats.scheduler.submitted == len(xs)
        assert stats.scheduler.rejected == 0
        # Coalescing must actually have happened, not degenerated to
        # 24 width-1 dispatches.
        assert stats.scheduler.max_width > 1
        assert stats.scheduler.batches < len(xs)
        assert sum(r.coalesced_width > 1 for r in results) > 0


class TestServerLifecycle:
    """Context-manager + close() semantics (mirrors CPUExecutor)."""

    def test_context_manager_closes(self):
        m = _matrix(seed=30, nrows=60, ncols=60)
        with SpMVServer() as server:
            server.submit(m, np.ones(m.ncols))
            assert not server.closed
        assert server.closed

    def test_close_is_idempotent(self):
        server = SpMVServer()
        server.close()
        server.close()
        assert server.closed

    def test_submit_after_close_raises(self):
        m = _matrix(seed=31, nrows=60, ncols=60)
        server = SpMVServer()
        server.close()
        with pytest.raises(DeviceError, match="after close"):
            server.submit(m, np.ones(m.ncols))
        with pytest.raises(DeviceError, match="after close"):
            server.submit_batch(m, np.ones((m.ncols, 2)))

    def test_reenter_after_close_raises(self):
        server = SpMVServer()
        server.close()
        with pytest.raises(DeviceError, match="closed"):
            server.__enter__()

    def test_close_drains_coalescing_scheduler(self):
        # Requests sitting in an unfilled group must be served (cause
        # "close"), not dropped, when the server shuts down.
        from concurrent.futures import ThreadPoolExecutor

        from repro.shard import CoalescePolicy

        m = _matrix(seed=32, nrows=80, ncols=80)
        x = np.ones(m.ncols)
        server = SpMVServer(
            scheduler=CoalescePolicy(max_batch=64, max_wait_seconds=30.0)
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(server.submit, m, x)
            for _ in range(1000):
                if server.stats().scheduler.submitted == 1:
                    break
            server.close()
            res = pending.result(timeout=10)
        np.testing.assert_allclose(res.y, m @ x, atol=1e-8)
        assert server.stats().scheduler.flushes.get("close") == 1

    def test_close_drains_loaded_front_door(self):
        # Regression: close() with a multi-tenant front door while
        # requests sit in an unfilled coalesce group.  Admitted
        # requests must drain with correct results (their admission
        # tickets released), shed requests must raise deterministically
        # before and independently of the close, and close stays
        # idempotent.
        from concurrent.futures import ThreadPoolExecutor

        from repro.errors import TenantRateLimitError
        from repro.serve.frontdoor import AdmissionPolicy, TenantConfig
        from repro.shard import CoalescePolicy

        m = _matrix(seed=33, nrows=80, ncols=80)
        rng = np.random.default_rng(33)
        tenants = ["t0", "t1", "t2", "limited"]
        xs = [rng.standard_normal(m.ncols) for _ in tenants]
        server = SpMVServer(
            admission=AdmissionPolicy(
                tenants={"limited": TenantConfig(rate=0.0, burst=1.0)}
            ),
            scheduler=CoalescePolicy(max_batch=64, max_wait_seconds=30.0),
        )
        with ThreadPoolExecutor(max_workers=len(xs)) as pool:
            futures = [
                pool.submit(server.submit, m, x, tenant=tenant)
                for tenant, x in zip(tenants, xs)
            ]
            for _ in range(2_000_000):
                if server.stats().scheduler.submitted == len(xs):
                    break
            else:
                pytest.fail("queued submits never landed")
            # A shed is deterministic even while the queue is loaded:
            # "limited"'s single token is held by its queued request,
            # so the retry sheds at admission -- it never blocks on the
            # coalesce group.
            with pytest.raises(TenantRateLimitError):
                server.submit(m, xs[0], tenant="limited")
            server.close()
            results = [f.result(timeout=10) for f in futures]
        for x, res in zip(xs, results):
            np.testing.assert_allclose(res.y, m @ x, atol=1e-8)
        assert server.stats().scheduler.flushes.get("close", 0) >= 1
        # Every admitted ticket was released on completion.
        fd = server.stats().frontdoor
        assert all(t.pending == 0 for t in fd.tenants.values())
        assert fd.tenants["limited"].shed == {"rate": 1}
        server.close()  # idempotent
        assert server.closed
        with pytest.raises(DeviceError, match="after close"):
            server.submit(m, xs[0], tenant="t0")
