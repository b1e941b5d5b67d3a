"""The benchmark's three seeded workloads, driven from outside the server.

Each workload makes its inputs from the seed (never timed), then offers
``setup`` (program calls before traffic: tuner fit, server and pool
construction, warm-up), ``run`` (one part of the timed traffic) and
``teardown``.  A run serves its traffic in parts, each on a server of its
own set-up.
Every response is checked against the reference SpMV/SpMM at the
differential suite's tolerances.  Why each workload exists is recorded
once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import deque
from time import perf_counter, sleep
from typing import Dict, List, Optional

import numpy as np

from repro import AutoTuner, SpMVServer, generate_collection
from repro.bench.loadgen import TenantProfile, WorkloadSpec, generate
from repro.blackbox import BlackboxPolicy
from repro.formats.csr import CSRMatrix
from repro.learn import LearningPolicy
from repro.matrices import generators as gen
from repro.resilient import ResiliencePolicy
from repro.serve.frontdoor import AdmissionPolicy, TenantConfig
from repro.shard import CoalescePolicy, ShardingPolicy
from repro.solvers import SolverSession, methods
from repro.trace import SLOTarget, TracingPolicy

from layers import TRACER

__all__ = ["WORKLOADS", "Tally"]

#: The differential suite's tolerances (tests/differential.py).
RTOL = 1e-10
ATOL = 1e-12


def csr_bytes(nnz: int, nrows: int, k: int) -> float:
    """Bytes a CSR SpMM touches, from array sizes: values and column
    indices, row pointers, the gathered right-hand sides, the output."""
    return 16.0 * nnz + 8.0 * (nrows + 1) + 8.0 * k * (nnz + nrows)


class Tally:
    """What the timed traffic produced, request by request."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Wall seconds per successful request.
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: Dict[str, int] = {}
        self.flops = 0.0
        self.bytes = 0.0
        self.sim_seconds = 0.0
        self.widths: List[int] = []
        self.imbalances: List[float] = []
        #: Wall seconds the benchmark spent checking responses inside
        #: the timed loop.
        self.check_seconds = 0.0
        #: Results folded into the simulated-truth digest.
        self.digested = 0
        self._digest = hashlib.sha256()
        #: Generator lateness per request (open loop only).
        self.lateness: List[float] = []

    def request(self, matrix: CSRMatrix, k: int, latency: float,
                result) -> None:
        """Account one served request (``result`` is a ``SubmitResult``)."""
        nnz, m = matrix.nnz, matrix.nrows
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency)
            self.flops += 2.0 * nnz * k
            self.bytes += csr_bytes(nnz, m, k)
            # A coalesced group's seconds are shared by its members.
            self.sim_seconds += result.seconds / result.coalesced_width
            self.widths.append(result.coalesced_width)
            if result.shards is not None:
                self.imbalances.append(result.shards.imbalance)

    def digest(self, y: np.ndarray, seconds: float) -> None:
        """Fold one result into the simulated-truth digest, in order."""
        self._digest.update(np.ascontiguousarray(y).tobytes())
        self._digest.update(repr(seconds).encode())
        self.digested += 1

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1

    def check(self, matrix: CSRMatrix, rhs: np.ndarray, y: np.ndarray,
              ref: Optional[np.ndarray] = None) -> float:
        """Compare one response with the reference; a mismatch fails it.

        ``ref`` is the reference result when the caller made it in
        advance.  Returns the wall seconds the check took.
        """
        t0 = perf_counter()
        with TRACER.span("bench.check"):
            if ref is None:
                ref = (matrix.matmat_reference(rhs) if rhs.ndim == 2
                       else matrix.matvec_reference(rhs))
            ok = y.shape == ref.shape and np.allclose(
                y, ref, rtol=RTOL, atol=ATOL
            )
        dt = perf_counter() - t0
        with self._lock:
            self.check_seconds += dt
            if not ok:
                self.mismatches += 1
                self.failed += 1
        return dt

    @property
    def hexdigest(self) -> Optional[str]:
        return self._digest.hexdigest() if self.digested else None


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Request-issuing threads in the timed loop.
    clients = 1
    #: Closed loops send a client's next request when its last one
    #: returns; the open loop sends on a schedule.
    closed_loop = True
    #: Matrix the ``ref.spmv_ms`` yardstick times.
    ref_matrix: CSRMatrix

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.server: Optional[SpMVServer] = None

    def setup(self, tally: Tally) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, tally: Tally, part: int,
            parts: int) -> float:  # pragma: no cover - interface
        """Serve part ``part`` of ``parts`` of the timed traffic on the
        server set up last; return the loop's wall seconds."""
        raise NotImplementedError

    def invalid_reason(self, tally: Tally) -> Optional[str]:
        """Why the run must not be counted, if it must not."""
        return None

    def shm_segments(self) -> tuple:
        """Shared-memory segments the server holds (leak check)."""
        sharded = getattr(self.server, "_sharded", None)
        return sharded.backend.store.segment_names() if (
            sharded is not None and hasattr(sharded.backend, "store")
        ) else ()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


# ----------------------------------------------------------------------
class _CheckedSession(SolverSession):
    """A solver session that times and checks every ``matvec``."""

    tally: Optional[Tally] = None
    #: Responses of the current solve, for the digest.
    ys: List[np.ndarray]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        t0 = perf_counter()
        y = super().matvec(x)
        latency = perf_counter() - t0
        if self.tally is not None:
            self.tally.latencies.append(latency)
            self.tally.attempted += 1
            self.tally.check(self.matrix, x, y)
            self.ys.append(y)
        return y


class SolverCG(Workload):
    """Closed loop, one client: CG solves on a plain server."""

    name = "solver_cg"
    #: Solves whose results enter the digest; every time-bounded run
    #: completes them.
    DIGEST_SOLVES = 3
    NROWS = 20_000
    TOL = 1e-10

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.matrix = gen.spd_system(self.NROWS, seed=seed)
        self.ref_matrix = self.matrix
        #: Timed solves so far; the next one's right-hand side.
        self.solves = 0

    def rhs(self, j: int, stream: int = 0) -> np.ndarray:
        return np.random.default_rng([self.seed, stream, j]).standard_normal(
            self.NROWS
        )

    def setup(self, tally: Tally) -> None:
        self.server = SpMVServer()
        self.session = _CheckedSession(self.matrix, self.server)
        # Untimed warm-up: the first solve in a fresh server plans and
        # faults in the kernels.
        self.session.ys = []
        self.session.tally = tally
        methods.cg(self.session, self.rhs(0, stream=1), tol=self.TOL)
        self.session.tally = None

    def run(self, tally: Tally, part: int, parts: int) -> float:
        session = self.session
        session.tally = tally
        TRACER.mark_client()
        n0 = len(tally.latencies)
        sim0 = session.stats().simulated_seconds
        t0 = perf_counter()
        deadline = t0 + self.seconds / parts
        while perf_counter() < deadline:
            session.ys = []
            res = methods.cg(session, self.rhs(self.solves), tol=self.TOL)
            if not res.converged:
                tally.failed += 1
            if self.solves < self.DIGEST_SOLVES:
                for y, record in zip(session.ys, res.history):
                    tally.digest(y, record.simulated_seconds)
            self.solves += 1
        wall = perf_counter() - t0
        session.tally = None
        n, nnz = len(tally.latencies) - n0, self.matrix.nnz
        tally.flops += 2.0 * nnz * n
        tally.bytes += n * csr_bytes(nnz, self.NROWS, 1)
        tally.sim_seconds += session.stats().simulated_seconds - sim0
        return wall


# ----------------------------------------------------------------------
def _fresh(matrix: CSRMatrix) -> CSRMatrix:
    """The same structure as a new object with copied index arrays."""
    return CSRMatrix(matrix.rowptr.copy(), matrix.colidx.copy(),
                     matrix.val, matrix.shape)


class TenantMix(Workload):
    """Open loop: Poisson arrivals from two tenants, every policy on."""

    name = "tenant_mix"
    closed_loop = False
    #: Six generator families with 3-25 non-zeros per row on average.
    FAMILIES = (
        lambda n, seed: gen.banded(n, avg_nnz=12.0, seed=seed),
        lambda n, seed: gen.power_law_graph(n, seed=seed),
        lambda n, seed: gen.cfd_like(n, avg_nnz=24.0, spread=4.0, seed=seed),
        lambda n, seed: gen.fem_constrained(n, seed=seed),
        lambda n, seed: gen.road_network(n, seed=seed),
        lambda n, seed: gen.bimodal_rows(n, seed=seed),
    )
    N_STRUCTURES = 24
    #: Half the structures fit, so about a third of requests miss and
    #: plan under this popularity.
    CACHE_CAPACITY = 12
    POPULARITY_ALPHA = 0.8
    #: Offered load, requests/second: a quarter of what the loop
    #: sustains on a 2-core host.  At half, queueing behind misses made
    #: p95 spread across seeds by more than any bound allows.
    RATE_INTERACTIVE = 30.0
    RATE_BULK = 10.0
    BULK_K = 4
    #: The warm-up replays the start of one fixed schedule, so set-up
    #: plans the same structures whatever the seed and run length.
    WARMUP_REQUESTS = 48
    WARMUP_SEED = 0
    WARMUP_SECONDS = 10.0
    #: Margin kept free before the next due time (seconds) when
    #: checking responses between requests.
    SLACK = 0.001
    #: Unchecked responses held at most; past it a check may delay the
    #: next request (this bounds the run's memory).
    MAX_PENDING = 64
    #: A run is invalid when the generator fell this far behind at p95.
    MAX_LATENESS_P95 = 0.1

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        # The structure catalogue is fixed; the seed draws the traffic
        # over it (arrivals, popularity, right-hand sides), so seeds
        # differ in what the server is asked, not in what it stores.
        self.structures = []
        for i in range(self.N_STRUCTURES):
            nrows = 2_000 + (10_000 * i) // (self.N_STRUCTURES - 1)
            family = self.FAMILIES[i % len(self.FAMILIES)]
            self.structures.append(family(nrows, i))
        self.ref_matrix = self.structures[0]
        self.schedule = generate(self._spec(seed, seconds))
        self.warmup = generate(
            self._spec(self.WARMUP_SEED, self.WARMUP_SECONDS)
        )[: self.WARMUP_REQUESTS]

    def _spec(self, seed: int, seconds: float) -> WorkloadSpec:
        return WorkloadSpec(
            tenants=(
                TenantProfile("interactive", priority="latency",
                              rate=self.RATE_INTERACTIVE),
                TenantProfile("bulk", priority="batch", rate=self.RATE_BULK),
            ),
            duration=seconds,
            model="open",
            n_matrices=self.N_STRUCTURES,
            popularity_alpha=self.POPULARITY_ALPHA,
            seed=seed,
        )

    def _inputs(self, i: int, req, stream: int = 0):
        """A fresh matrix object and its RHS for scheduled request ``i``."""
        matrix = _fresh(self.structures[req.matrix_id])
        rng = np.random.default_rng([self.seed, stream, i])
        if req.tenant == "bulk":
            rhs = rng.standard_normal((matrix.ncols, self.BULK_K))
        else:
            rhs = rng.standard_normal(matrix.ncols)
        return matrix, rhs

    def _serve(self, req, matrix, rhs):
        if req.tenant == "bulk":
            return self.server.submit_batch(matrix, rhs, tenant=req.tenant)
        return self.server.submit(matrix, rhs, tenant=req.tenant)

    def setup(self, tally: Tally) -> None:
        # The model is part of the deployed system, not of the traffic:
        # its training corpus is fixed, so every seed plans alike.
        tuner = AutoTuner(classifier="tree", seed=0)
        tuner.fit(generate_collection(16, seed=0, size_range=(500, 3_000)))
        self.server = SpMVServer(
            tuner,
            cache_capacity=self.CACHE_CAPACITY,
            admission=AdmissionPolicy(tenants={
                "interactive": TenantConfig(priority="latency"),
                "bulk": TenantConfig(priority="batch"),
            }),
            tracing=TracingPolicy(slo=SLOTarget(p99=0.025)),
            blackbox=BlackboxPolicy(),
            learning=LearningPolicy(epsilon=0.05, seed=self.seed),
            resilience=ResiliencePolicy(),
        )
        for i, req in enumerate(self.warmup):
            matrix, rhs = self._inputs(i, req, stream=1)
            result = self._serve(req, matrix, rhs)
            tally.check(matrix, rhs, result.y)

    def run(self, tally: Tally, part: int, parts: int) -> float:
        TRACER.mark_client()
        pending: deque = deque()
        check_rate = 0.0  # seconds per checked non-zero x RHS column
        schedule = self.schedule
        # This part replays the arrivals due in its share of the run.
        lo = self.seconds * part / parts
        hi = (self.seconds * (part + 1) / parts if part + 1 < parts
              else math.inf)
        order = [i for i, req in enumerate(schedule)
                 if lo <= req.arrival < hi]
        if not order:
            return 0.0
        nxt = self._inputs(order[0], schedule[order[0]])
        start0 = perf_counter()
        t0 = start0 - lo
        end = start0
        for n, i in enumerate(order):
            req = schedule[i]
            matrix, rhs = nxt
            nxt = None
            due = t0 + req.arrival
            now = perf_counter()
            if now < due:
                sleep(due - now)
            start = perf_counter()
            tally.lateness.append(start - due)
            try:
                result = self._serve(req, matrix, rhs)
            except Exception as exc:  # sheds and faults count as failures
                tally.fail(exc)
                result = None
            end = perf_counter()
            k = rhs.shape[1] if rhs.ndim == 2 else 1
            if result is not None:
                tally.request(matrix, k, end - due, result)
                tally.digest(result.y, result.seconds)
                # Checked against the shared base structure, so the
                # fresh copy's index arrays are freed right away.
                pending.append((self.structures[req.matrix_id], rhs,
                                result.y, k))
            del matrix, result
            if n + 1 == len(order):
                break
            # Slack work, never past the next due time: build the next
            # request's inputs, then check responses while the last
            # check's cost per non-zero says the next one still fits.
            j = order[n + 1]
            nxt = self._inputs(j, schedule[j])
            next_due = t0 + schedule[j].arrival
            while pending:
                base, rhs, y, k = pending[0]
                work = base.nnz * k
                left = next_due - perf_counter()
                if (left < self.SLACK + work * check_rate
                        and len(pending) <= self.MAX_PENDING):
                    break
                pending.popleft()
                check_rate = tally.check(base, rhs, y) / work
        for base, rhs, y, _k in pending:
            tally.check(base, rhs, y)
        return end - start0

    def invalid_reason(self, tally: Tally) -> Optional[str]:
        p95 = float(np.percentile(tally.lateness, 95))
        if p95 > self.MAX_LATENESS_P95:
            return f"generator fell behind: lateness p95 {p95 * 1e3:.1f} ms"
        return None


# ----------------------------------------------------------------------
class CoalescedShards(Workload):
    """Closed loop, two clients: process shards behind the coalescer."""

    name = "coalesced_shards"
    clients = 2
    NROWS = 20_000
    N_MATRICES = 3
    #: Consecutive rounds on one matrix, so clients that drift one
    #: request apart still share most groups.
    BLOCK = 10
    INVALIDATE_EVERY = 50
    RHS_POOL = 16
    #: The first blocks visit every matrix once, so the warm-up
    #: publishes and plans all of them whatever the seed.
    WARMUP_ROUNDS = N_MATRICES * BLOCK

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.matrices = [
            gen.power_law_graph(self.NROWS, seed=seed * 10 + i)
            for i in range(self.N_MATRICES)
        ]
        self.ref_matrix = self.matrices[0]
        rng = np.random.default_rng(seed)
        self.block_order = np.concatenate([
            rng.permutation(self.N_MATRICES),
            rng.integers(self.N_MATRICES, size=4096),
        ])
        self.rhs = [
            [np.random.default_rng([seed, c, j]).standard_normal(self.NROWS)
             for j in range(self.RHS_POOL)]
            for c in range(self.clients)
        ]
        # Every (client, matrix, RHS) reference, made here and not timed:
        # a client running the reference SpMV between its requests would
        # hold its partner's coalesced group open while it did.
        self.refs = [
            [[matrix.matvec_reference(x) for x in pool]
             for matrix in self.matrices]
            for pool in self.rhs
        ]

    def matrix_for(self, r: int) -> int:
        blocks = len(self.block_order)
        return int(self.block_order[(r // self.BLOCK) % blocks])

    def setup(self, tally: Tally) -> None:
        self.server = SpMVServer(
            sharding=ShardingPolicy(n_shards=2, backend="process"),
            scheduler=CoalescePolicy(max_batch=2),
        )
        # Warm-up: start the pool, publish every matrix to shared
        # memory and bind worker plans, through the coalesced path.
        self._clients(tally, lambda r: r < self.WARMUP_ROUNDS, timed=False)

    def _client(self, c: int, tally: Tally, more, timed: bool) -> None:
        if timed:
            TRACER.mark_client()
        server = self.server
        r = 0
        while more(r):
            m, j = self.matrix_for(r), r % self.RHS_POOL
            matrix, x = self.matrices[m], self.rhs[c][j]
            t0 = perf_counter()
            try:
                result = server.submit(matrix, x)
            except Exception as exc:  # sheds and faults count as failures
                tally.fail(exc)
            else:
                tally.request(matrix, 1, perf_counter() - t0, result)
                tally.check(matrix, x, result.y, ref=self.refs[c][m][j])
            r += 1
            if r % self.INVALIDATE_EVERY == 0:
                server.invalidate(matrix)

    def _clients(self, tally: Tally, more, *, timed: bool) -> None:
        errors: List[BaseException] = []

        def body(c: int) -> None:
            try:
                self._client(c, tally, more, timed)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(c,),
                                    name=f"bench-client-{c}")
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def run(self, tally: Tally, part: int, parts: int) -> float:
        t0 = perf_counter()
        deadline = t0 + self.seconds / parts
        self._clients(tally, lambda r: perf_counter() < deadline, timed=True)
        return perf_counter() - t0


WORKLOADS = {w.name: w for w in (SolverCG, TenantMix, CoalescedShards)}
