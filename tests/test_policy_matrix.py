"""Policy-matrix differential: every policy combination serves the plain bytes.

``SpMVServer`` has six in-process opt-in policies -- admission,
tracing, blackbox, learning, coalescing, resilience -- and three ways
to execute (unsharded, inline shards, process shards).  This sweep
builds one server per combination (64 subsets x 3 = 192 servers, chaos
off) and drives the same traffic through each: three structures, one
with rows longer than 128 non-zeros, each served by one ``submit`` and
one ``submit_batch`` with k = 3 (two passes under ``max_rhs=2``).  It
runs six rounds: cold and warm on the original objects; then, with
every request carrying a fresh copy of its structure (new ``rowptr``
and ``colidx`` arrays), a round as they are, one after ``invalidate()``
of a fresh copy of one matrix, one after ``invalidate()`` of another
original and one after ``clear_cache()``.

Per configuration it asserts:

- every ``y`` is byte-equal to the plain server's, and every result's
  fingerprint equals :func:`~repro.serve.fingerprint_matrix`'s;
- plan-cache *misses* (not planner calls: a learning server also calls
  the base planner to seed its tree arm's prior) are ``3K`` cold, none
  warm or on fresh copies, ``K`` after each ``invalidate()`` and ``3K``
  after ``clear_cache()``, with ``K`` the shard count (1 unsharded);
- a block on ``submit`` and a vector on ``submit_batch`` raise
  :class:`~repro.errors.ShapeError`;
- the front door ends with nothing pending and admitted every call;
- the flight recorder and the decision log saw every served request,
  and the trace holds one ``serve.request`` root per call.

A 16-thread hammer then runs one configuration per class (plain, every
in-process policy, inline shards with every policy, process shards
with every policy), half of its requests on fresh copies, and checks
each request's bytes and the counters under concurrency.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.blackbox import BlackboxPolicy
from repro.errors import ShapeError
from repro.formats import CSRMatrix
from repro.learn import LearningPolicy
from repro.matrices import generators as gen
from repro.observe import MetricsRegistry
from repro.resilient import ResiliencePolicy
from repro.serve import AdmissionPolicy, SpMVServer, fingerprint_matrix
from repro.shard.executor import ShardingPolicy
from repro.shard.scheduler import CoalescePolicy
from repro.trace import TracingPolicy

pytestmark = pytest.mark.differential

#: The in-process opt-in policies, in sweep order.
POLICIES = ("admission", "tracing", "blackbox", "learning", "coalescing",
            "resilience")
#: Every subset of :data:`POLICIES` (64, the empty one first).
SUBSETS = [
    combo
    for n in range(len(POLICIES) + 1)
    for combo in itertools.combinations(POLICIES, n)
]
SHARDING = (None, "inline", "process")
N_SHARDS = 2
MAX_RHS = 2
#: Batch width: ``MAX_RHS`` splits it into two passes.
K = 3


def _matrices():
    return [
        gen.banded(200, avg_nnz=8.0, seed=0),
        gen.power_law_graph(240, seed=3),
        # One 150-non-zero row: longer than any subvector kernel's width.
        gen.dense_row_outliers(300, seed=11),
    ]


MATRICES = _matrices()
assert max(np.diff(MATRICES[2].rowptr)) > 128
_RNG = np.random.default_rng(2024)
INPUTS = [
    (_RNG.standard_normal(m.ncols), _RNG.standard_normal((m.ncols, K)))
    for m in MATRICES
]
FINGERPRINTS = [fingerprint_matrix(m) for m in MATRICES]


def _fresh(m: CSRMatrix) -> CSRMatrix:
    """The same structure as a new object with copied index arrays."""
    return CSRMatrix(m.rowptr.copy(), m.colidx.copy(), m.val, m.shape)


def _server(policies, sharding: Optional[str]) -> SpMVServer:
    """One server with exactly ``policies`` on, on its own registry."""
    on = set(policies)
    return SpMVServer(
        max_rhs=MAX_RHS,
        registry=MetricsRegistry(),
        admission=AdmissionPolicy() if "admission" in on else None,
        tracing=(TracingPolicy(recorder_capacity=1 << 16)
                 if "tracing" in on else None),
        blackbox=BlackboxPolicy() if "blackbox" in on else None,
        learning=LearningPolicy(epsilon=0.0) if "learning" in on else None,
        scheduler=(CoalescePolicy(max_wait_seconds=0.0)
                   if "coalescing" in on else None),
        resilience=ResiliencePolicy() if "resilience" in on else None,
        sharding=(ShardingPolicy(n_shards=N_SHARDS, backend=sharding)
                  if sharding is not None else None),
    )


def _misses(server: SpMVServer) -> int:
    """Plan-cache misses of the cache this server plans through."""
    stats = server.stats()
    return (stats.shards.cache if stats.shards is not None
            else stats.cache).misses


def _round(server: SpMVServer, fresh: bool) -> List[bytes]:
    """One ``submit`` and one ``submit_batch`` per structure.

    With ``fresh``, every request carries a new copy of its structure.
    """
    out = []
    for i, (x, X) in enumerate(INPUTS):
        for call, rhs in ((server.submit, x), (server.submit_batch, X)):
            m = _fresh(MATRICES[i]) if fresh else MATRICES[i]
            res = call(m, rhs)
            assert res.fingerprint == FINGERPRINTS[i]
            out.append(res.y.tobytes())
    return out


def _drive(server: SpMVServer) -> Tuple[List[List[bytes]], List[int]]:
    """Cold and warm rounds, then fresh-copy rounds: as they are, after
    ``invalidate`` of a copy, of an original, and after ``clear_cache``.

    Returns the bytes of every result per phase and the plan-cache
    misses after each phase.
    """
    phases, misses = [], []
    for phase in ("cold", "warm", "fresh", "invalidate_fresh",
                  "invalidate", "clear"):
        if phase == "invalidate_fresh":
            server.invalidate(_fresh(MATRICES[2]))
        elif phase == "invalidate":
            server.invalidate(MATRICES[1])
        elif phase == "clear":
            server.clear_cache()
        phases.append(_round(server, fresh=phase not in ("cold", "warm")))
        misses.append(_misses(server))
    return phases, misses


@pytest.fixture(scope="module")
def plain_bytes() -> List[List[bytes]]:
    with _server((), None) as server:
        return _drive(server)[0]


def _check_counters(server: SpMVServer, policies, calls: int,
                    served: int) -> None:
    """Front door, flight recorder, decision log and trace roots."""
    stats = server.stats()
    if "admission" in policies:
        assert stats.frontdoor.admitted == calls
        assert all(t.pending == 0 for t in stats.frontdoor.tenants.values())
    if "blackbox" in policies:
        assert stats.blackbox.flight.recorded == served
    if "tracing" in policies:
        roots = [r for r in server.trace_recorder.roots()
                 if r.name == "serve.request"]
        assert len(roots) == calls
        assert server.trace_recorder.dropped == 0


@pytest.mark.parametrize("sharding", SHARDING,
                         ids=lambda s: s or "unsharded")
@pytest.mark.parametrize("policies", SUBSETS,
                         ids=lambda p: "+".join(p) or "plain")
def test_policy_matrix(policies, sharding, plain_bytes):
    k = N_SHARDS if sharding is not None else 1
    with _server(policies, sharding) as server:
        phases, misses = _drive(server)
        assert phases == plain_bytes
        assert misses == [3 * k, 3 * k, 3 * k, 4 * k, 5 * k, 8 * k]
        m, (x, X) = MATRICES[0], INPUTS[0]
        with pytest.raises(ShapeError):
            server.submit(m, X[:, :1])
        with pytest.raises(ShapeError):
            server.submit_batch(m, x)
        served = 6 * 2 * len(MATRICES)
        _check_counters(server, policies, served + 2, served)
        if "learning" in policies:
            assert server.stats().learning.log_appended == served


# -- concurrency -------------------------------------------------------
HAMMER_THREADS = 16
HAMMER_REQUESTS = 6
HAMMER = {
    "plain": ((), None),
    "in_process": (POLICIES, None),
    "inline_shards": (POLICIES, "inline"),
    "process_shards": (POLICIES, "process"),
}


def _hammer_inputs(thread: int) -> List[Tuple[int, np.ndarray, bool]]:
    """Thread ``thread``'s requests: ``(structure, vector-or-block,
    fresh)``; half of them carry a fresh copy of the structure."""
    rng = np.random.default_rng(1000 + thread)
    out = []
    for i in range(HAMMER_REQUESTS):
        s = (thread + i) % len(MATRICES)
        ncols = MATRICES[s].ncols
        out.append((s, rng.standard_normal(ncols) if i % 2 == 0
                    else rng.standard_normal((ncols, K)),
                    (thread + i // 2) % 2 == 1))
    return out


def _serve_one(server: SpMVServer, s: int, rhs: np.ndarray, fresh: bool,
               tenant: str) -> bytes:
    m = _fresh(MATRICES[s]) if fresh else MATRICES[s]
    call = server.submit if rhs.ndim == 1 else server.submit_batch
    res = call(m, rhs, tenant=tenant)
    assert res.fingerprint == FINGERPRINTS[s]
    return res.y.tobytes()


@pytest.fixture(scope="module")
def hammer_expected() -> Dict[int, List[bytes]]:
    with _server((), None) as server:
        return {
            t: [_serve_one(server, s, rhs, fresh, "plain")
                for s, rhs, fresh in _hammer_inputs(t)]
            for t in range(HAMMER_THREADS)
        }


@pytest.mark.parametrize("name", list(HAMMER))
def test_policy_hammer(name, hammer_expected):
    policies, sharding = HAMMER[name]
    with _server(policies, sharding) as server:
        def client(thread: int) -> List[bytes]:
            tenant = f"t{thread % 2}"
            return [_serve_one(server, s, rhs, fresh, tenant)
                    for s, rhs, fresh in _hammer_inputs(thread)]

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            got = dict(enumerate(pool.map(client, range(HAMMER_THREADS))))
        assert got == hammer_expected
        calls = HAMMER_THREADS * HAMMER_REQUESTS
        _check_counters(server, policies, calls, calls)
        stats = server.stats()
        if "coalescing" in policies:
            batch_calls = calls // 2
            assert stats.scheduler.coalesced_rhs == calls - batch_calls
            if "learning" in policies:
                assert (stats.learning.log_appended
                        == stats.scheduler.batches + batch_calls)
