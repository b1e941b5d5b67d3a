"""Request coalescing: concurrent same-matrix SpMVs become one SpMM.

Iterative solvers and replicated model serving produce many *concurrent*
SpMV requests against the same matrix.  Executing them one by one pays
the per-dispatch overhead (and the matrix traffic) once per vector; the
multi-RHS path (:func:`~repro.serve.batch.run_plan_spmm`) pays it once
per *batch* -- the paper's conclusion motivates exactly this
multiple-vector extension.  The :class:`RequestScheduler` sits in front
of a server and converts concurrency into batch width:

- requests for the same matrix (same structural fingerprint *and* the
  same values -- the fingerprint deliberately ignores values, so
  coalescing on it alone would compute with the wrong matrix) join that
  matrix's pending queue;
- a batch is taken from the queue when it holds ``max_batch`` requests
  (the filling thread dispatches it inline), when the oldest member's
  ``max_wait_seconds`` window expires (a background dispatcher thread
  watches deadlines), or when the scheduler closes;
- one flush executes ``A @ [x_1 .. x_k]`` and every member of the batch
  receives its own column -- bit-identical to a sequential ``submit``,
  because the batched kernels compute each column independently.

Multi-tenancy: every request carries a *tenant*.  When the policy sets
``fair=True``, batch composition is chosen by
:func:`~repro.serve.frontdoor.fair_allocation` -- round-robin slots
across tenants with pending demand -- so one hot tenant cannot
monopolise a coalesce group: every other tenant keeps its fair floor of
``max_batch // n_active`` slots per batch, and the hot tenant's excess
waits (and eventually sheds against its own bound) instead of starving
siblings.

Admission control: at most ``max_queue`` requests may be waiting for a
flush (and at most ``max_queue_per_tenant`` per tenant, when set); one
more raises :class:`~repro.errors.QueueFullError` -- naming the tenant
when the per-tenant bound tripped -- instead of buffering unboundedly
(backpressure belongs at the boundary, not in an ever-growing queue).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DeviceError, QueueFullError
from repro.formats.csr import CSRMatrix
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.spans import activate_trace, span
from repro.serve.fingerprint import fingerprint_matrix
from repro.serve.frontdoor import DEFAULT_TENANT, fair_allocation
from repro.trace.context import TraceContext, capture_context
from repro.utils.validation import check_spmv_operand

__all__ = [
    "CoalescePolicy",
    "ScheduledResult",
    "SchedulerStats",
    "RequestScheduler",
]

#: Signature of the batched executor behind the scheduler: takes the
#: matrix and a ``(ncols, k)`` RHS block, returns the batch outcome
#: (e.g. a :class:`~repro.serve.server.SubmitResult` with ``y`` of
#: shape ``(nrows, k)``).
BatchExecute = Callable[[CSRMatrix, np.ndarray], Any]

#: Batch-width histogram buckets (powers of two up to typical widths).
_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class CoalescePolicy:
    """Bounds on the coalescing behaviour.

    Parameters
    ----------
    max_batch:
        Flush a batch as soon as a matrix's queue holds this many
        requests.
    max_wait_seconds:
        Longest a request waits for siblings before its batch flushes
        anyway -- the latency the first request in a batch pays to buy
        batching.  ``0`` disables waiting (every request dispatches
        immediately at width 1).
    max_queue:
        Admission bound: most requests allowed to be waiting for a
        flush at once; one more raises
        :class:`~repro.errors.QueueFullError`.
    max_queue_per_tenant:
        Per-tenant admission bound: most waiting requests any one
        tenant may hold; one more raises
        :class:`~repro.errors.QueueFullError` *naming the tenant*.
        ``None`` (default) applies only the global bound.
    fair:
        Select batch composition with
        :func:`~repro.serve.frontdoor.fair_allocation` across tenants
        (round-robin slots, FIFO within a tenant) instead of pure FIFO,
        so one tenant cannot monopolise a coalesce group.
    """

    max_batch: int = 8
    max_wait_seconds: float = 0.005
    max_queue: int = 256
    max_queue_per_tenant: Optional[int] = None
    fair: bool = False

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be > 0, got {self.max_batch}")
        if self.max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.max_queue <= 0:
            raise ValueError(f"max_queue must be > 0, got {self.max_queue}")
        if self.max_queue_per_tenant is not None \
                and self.max_queue_per_tenant <= 0:
            raise ValueError(
                f"max_queue_per_tenant must be > 0, "
                f"got {self.max_queue_per_tenant}"
            )


@dataclass(frozen=True)
class ScheduledResult:
    """What one coalesced ``submit`` receives back.

    ``batch`` is the *shared* outcome of the whole flushed batch (every
    member receives the same object); ``column`` is this request's
    column inside it.
    """

    #: The batched executor's return value for the whole batch.
    batch: Any
    #: This request's column index within the batch.
    column: int
    #: How many requests the batch held when it flushed.
    width: int
    #: Why the batch flushed: ``"full"``, ``"window"`` or ``"close"``.
    cause: str
    #: Trace id of the shared dispatch trace (the fan-in trace linking
    #: every member request), when any member was traced; else ``None``.
    dispatch_trace_id: Optional[str] = None


@dataclass(frozen=True)
class SchedulerStats:
    """Point-in-time snapshot of the scheduler's accounting."""

    #: Requests admitted (eventually served by some flush).
    submitted: int
    #: Requests rejected with :class:`QueueFullError` (any bound).
    rejected: int
    #: Groups flushed (each is one batched dispatch).
    batches: int
    #: Requests served across all flushed groups.
    coalesced_rhs: int
    #: Widest group flushed so far.
    max_width: int
    #: Flush counts by cause (``full`` / ``window`` / ``close``).
    flushes: Dict[str, int] = field(default_factory=dict)
    #: Rejections charged to the per-tenant bound, by tenant.
    rejected_tenants: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_width(self) -> float:
        """Average requests per flushed group (1.0 = no coalescing won)."""
        return self.coalesced_rhs / self.batches if self.batches else 0.0

    def describe(self) -> str:
        """Readable one-per-line summary (CLI / logs)."""
        causes = ", ".join(
            f"{cause}={count}" for cause, count in sorted(self.flushes.items())
        ) or "none"
        lines = [
            f"requests           : {self.submitted} admitted / "
            f"{self.rejected} rejected",
            f"batches            : {self.batches} "
            f"(mean width {self.mean_width:.2f}, max {self.max_width})",
            f"flush causes       : {causes}",
        ]
        if self.rejected_tenants:
            per_tenant = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(self.rejected_tenants.items())
            )
            lines.append(f"tenant rejections  : {per_tenant}")
        return "\n".join(lines)


class _Member:
    """One queued request, waiting to be selected into a batch."""

    __slots__ = ("tenant", "x", "seq", "deadline", "trace_ref", "recorder",
                 "batch", "column")

    def __init__(self, tenant: str, x: np.ndarray, seq: int, deadline: float):
        self.tenant = tenant
        self.x = x
        self.seq = seq
        self.deadline = deadline
        #: ``(trace_id, span_id)`` of the member's request span, when
        #: traced; the flush's fan-in dispatch trace links back to it.
        self.trace_ref: Optional[Tuple[str, str]] = None
        self.recorder: Any = None
        #: The flushed :class:`_Batch` serving this member (set under
        #: the scheduler lock; ``None`` while still queued).
        self.batch: Optional["_Batch"] = None
        self.column = -1


class _Batch:
    """One flushed batch: the members that share a single dispatch."""

    __slots__ = ("matrix", "members", "cause", "result", "error",
                 "dispatch_trace_id", "done")

    def __init__(self, matrix: CSRMatrix, members: List[_Member], cause: str):
        self.matrix = matrix
        self.members = members
        self.cause = cause
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.dispatch_trace_id: Optional[str] = None
        self.done = threading.Event()


class _KeyQueue:
    """Pending members for one coalescing key, in arrival order."""

    __slots__ = ("matrix", "members")

    def __init__(self, matrix: CSRMatrix):
        self.matrix = matrix
        self.members: List[_Member] = []


def _coalesce_key(
    matrix: CSRMatrix, fingerprint=fingerprint_matrix
) -> Tuple[Any, bytes]:
    """Identity under which requests may share one dispatch.

    The structural fingerprint ignores values by design (values change
    every iteration in solver traffic while the *plan* stays valid), so
    it alone is not a safe coalescing key: two matrices with one pattern
    but different values must not share a dispatch.  Pair it with a
    digest of the value array -- always computed fresh (never memoised):
    values legitimately mutate in place between submits.  Like the
    fingerprint, it is SHA-256 truncated to 16 bytes over the array's
    buffer, read in place.
    """
    digest = hashlib.sha256(np.ascontiguousarray(matrix.val)).digest()[:16]
    return fingerprint(matrix), digest


class RequestScheduler:
    """Admission-controlled coalescing queue in front of a batch executor.

    Parameters
    ----------
    execute:
        The batched path to dispatch flushed batches through -- for the
        server integration, a bound ``submit_batch``.  Called with
        ``(matrix, X)`` where ``X`` stacks the batch's vectors as
        columns.  Must be thread-safe (flushes can run concurrently on
        the filling thread and the dispatcher thread).
    policy:
        Batch-width / wait-window / admission bounds and the tenant
        fairness switch.
    registry:
        Metrics registry for ``scheduler_*`` instruments.
    """

    def __init__(
        self,
        execute: BatchExecute,
        policy: CoalescePolicy = CoalescePolicy(),
        *,
        registry: Optional[MetricsRegistry] = None,
        fingerprint=None,
    ):
        self._execute = execute
        # Structural-fingerprint hook: the server injects its identity
        # cache so repeated same-object submits skip hashing here too.
        self._fingerprint = (
            fingerprint if fingerprint is not None else fingerprint_matrix
        )
        self.policy = policy
        self.registry = get_registry() if registry is None else registry
        self._cond = threading.Condition()
        self._queues: Dict[Tuple[Any, bytes], _KeyQueue] = {}
        self._seq = itertools.count()
        self._pending = 0
        self._tenant_pending: Dict[str, int] = {}
        self._closed = False
        self._submitted = 0
        self._rejected = 0
        self._rejected_tenants: Dict[str, int] = {}
        self._batches = 0
        self._coalesced_rhs = 0
        self._max_width = 0
        self._flushes: Dict[str, int] = {}
        #: Rotates the fair-allocation starting tenant so remainder
        #: slots do not always favour the same tenant.
        self._rotation = 0
        self._m_requests = {
            outcome: self.registry.counter(
                "scheduler_requests_total", {"outcome": outcome},
                help_text="Coalescing-scheduler admissions by outcome.",
            )
            for outcome in ("accepted", "rejected")
        }
        self._m_batches = {
            cause: self.registry.counter(
                "scheduler_batches_total", {"cause": cause},
                help_text="Flushed coalescing groups by flush cause.",
            )
            for cause in ("full", "window", "close")
        }
        self._m_width = self.registry.histogram(
            "scheduler_batch_width",
            buckets=_WIDTH_BUCKETS,
            help_text="Requests per flushed coalescing group.",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-coalesce-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "RequestScheduler":
        if self._closed:
            raise DeviceError(
                "RequestScheduler is closed; create a new instance"
            )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush every pending request and stop the dispatcher (idempotent).

        Requests already admitted are served (their batches flush with
        cause ``"close"``); new ``submit`` calls raise
        :class:`~repro.errors.DeviceError`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or ``__exit__``) has run."""
        return self._closed

    # -- submission ------------------------------------------------------
    def submit(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> ScheduledResult:
        """Join a matrix's coalescing queue; block until a flush serves it.

        Returns this request's :class:`ScheduledResult`.  Raises
        :class:`~repro.errors.QueueFullError` when an admission bound
        is hit (the error names the tenant when the per-tenant bound
        tripped), and re-raises the batched executor's exception when
        the batch's flush failed (every member of a failed batch sees
        the same exception).
        """
        x = check_spmv_operand(matrix.ncols, x)
        # Snapshot this thread's trace before queueing: the batch may
        # flush on any member's thread (or the dispatcher's), and the
        # fan-in dispatch trace must link back to every member request.
        member_ctx = capture_context()
        to_flush: Optional[_Batch] = None
        with self._cond:
            if self._closed:
                raise DeviceError(
                    "RequestScheduler used after close(); "
                    "create a new instance"
                )
            if self._pending >= self.policy.max_queue:
                self._rejected += 1
                self._m_requests["rejected"].inc()
                raise QueueFullError(
                    f"coalescing queue full "
                    f"({self._pending}/{self.policy.max_queue} pending); "
                    f"shed load or retry later"
                )
            bound = self.policy.max_queue_per_tenant
            tenant_pending = self._tenant_pending.get(tenant, 0)
            if bound is not None and tenant_pending >= bound:
                self._rejected += 1
                self._rejected_tenants[tenant] = (
                    self._rejected_tenants.get(tenant, 0) + 1
                )
                self._m_requests["rejected"].inc()
                raise QueueFullError(
                    f"coalescing queue full for tenant {tenant!r} "
                    f"({tenant_pending}/{bound} pending); "
                    f"shed load or retry later",
                    tenant=tenant,
                )
            key = _coalesce_key(matrix, self._fingerprint)
            keyq = self._queues.get(key)
            if keyq is None:
                keyq = _KeyQueue(matrix)
                self._queues[key] = keyq
                self._cond.notify_all()  # dispatcher: new deadline to watch
            member = _Member(
                tenant, x, next(self._seq),
                monotonic() + self.policy.max_wait_seconds,
            )
            if member_ctx is not None and member_ctx.span_id is not None:
                member.trace_ref = (member_ctx.trace_id, member_ctx.span_id)
                member.recorder = member_ctx.recorder
            keyq.members.append(member)
            self._pending += 1
            self._tenant_pending[tenant] = tenant_pending + 1
            self._submitted += 1
            self._m_requests["accepted"].inc()
            if len(keyq.members) >= self.policy.max_batch:
                # The thread that fills a batch dispatches it inline --
                # no handoff latency on the common full-batch path.
                to_flush = self._take_batch_locked(key, keyq, "full")
        if to_flush is not None:
            self._flush(to_flush)
        if member_ctx is not None:
            with span("scheduler.wait", self.registry,
                      attrs={"tenant": tenant}):
                self._await_member(member)
        else:
            self._await_member(member)
        batch = member.batch
        assert batch is not None
        if batch.error is not None:
            raise batch.error
        return ScheduledResult(
            batch=batch.result,
            column=member.column,
            width=len(batch.members),
            cause=batch.cause,
            dispatch_trace_id=batch.dispatch_trace_id,
        )

    def _await_member(self, member: _Member) -> None:
        """Block until the member's batch has flushed.

        Two phases: wait (on the scheduler condition) until some batch
        selection claimed this member -- under fairness that is not
        necessarily the batch whose fill this thread triggered -- then
        wait on that batch's completion event.
        """
        with self._cond:
            self._cond.wait_for(lambda: member.batch is not None)
        member.batch.done.wait()

    # -- batch selection -------------------------------------------------
    def _take_batch_locked(
        self, key: Tuple[Any, bytes], keyq: _KeyQueue, cause: str
    ) -> _Batch:
        """Select up to ``max_batch`` members from a key's queue.

        Called with the lock held.  Composition: pure FIFO, unless the
        policy asks for tenant fairness -- then slots are round-robin
        across tenants with pending demand (FIFO within a tenant), so a
        hot tenant's backlog cannot crowd siblings out of the batch.
        Selected members leave the queue (and the pending accounting);
        the rest keep their deadlines and ride a later batch.
        """
        width = min(self.policy.max_batch, len(keyq.members))
        if self.policy.fair:
            demands: Dict[str, int] = {}
            for m in keyq.members:
                demands[m.tenant] = demands.get(m.tenant, 0) + 1
            alloc = fair_allocation(demands, width, start=self._rotation)
            self._rotation += 1
            remaining = dict(alloc)
            selected: List[_Member] = []
            rest: List[_Member] = []
            for m in keyq.members:
                if remaining.get(m.tenant, 0) > 0:
                    remaining[m.tenant] -= 1
                    selected.append(m)
                else:
                    rest.append(m)
            keyq.members = rest
        else:
            selected = keyq.members[:width]
            keyq.members = keyq.members[width:]
        if not keyq.members:
            del self._queues[key]
        else:
            # Leftovers become the new queue head: the dispatcher must
            # re-examine their (already old) deadlines promptly.
            self._cond.notify_all()
        batch = _Batch(keyq.matrix, selected, cause)
        for column, m in enumerate(selected):
            m.column = column
            m.batch = batch
            self._pending -= 1
            left = self._tenant_pending.get(m.tenant, 1) - 1
            if left:
                self._tenant_pending[m.tenant] = left
            else:
                self._tenant_pending.pop(m.tenant, None)
        # Waiters in _await_member watch for their member's batch.
        self._cond.notify_all()
        return batch

    # -- flushing --------------------------------------------------------
    def _flush(self, batch: _Batch) -> None:
        """Dispatch one batch (lock NOT held) and wake its waiters."""
        width = len(batch.members)
        try:
            X = np.stack([m.x for m in batch.members], axis=1)
            batch.result = self._dispatch(batch, X)
        except BaseException as exc:
            batch.error = exc
        with self._cond:
            self._batches += 1
            self._coalesced_rhs += width
            self._max_width = max(self._max_width, width)
            self._flushes[batch.cause] = self._flushes.get(batch.cause, 0) + 1
        self._m_batches[batch.cause].inc()
        self._m_width.observe(width)
        batch.done.set()

    def _dispatch(self, batch: _Batch, X: np.ndarray) -> Any:
        """Execute one flushed batch, under a fan-in trace when traced.

        N member requests share this one dispatch, so no single member
        trace can own it: the dispatch gets its *own* trace whose root
        span links to every member's request span.  Activation swaps in
        a fresh span stack -- the flush may run inline on a member's
        thread, mid-way through that member's own ``serve.request``
        span, and must not nest under it.
        """
        refs = [m.trace_ref for m in batch.members if m.trace_ref is not None]
        recorder = next(
            (m.recorder for m in batch.members if m.recorder is not None),
            None,
        )
        if not refs or recorder is None:
            return self._execute(batch.matrix, X)
        links = tuple(refs)
        ctx = TraceContext.root(recorder, links=links)
        batch.dispatch_trace_id = ctx.trace_id
        with activate_trace(ctx):
            with span("scheduler.dispatch", self.registry,
                      attrs={"width": len(batch.members),
                             "cause": batch.cause},
                      links=links):
                return self._execute(batch.matrix, X)

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: flush batches whose wait window expired."""
        while True:
            expired: List[_Batch] = []
            closing = False
            with self._cond:
                now = monotonic()
                for key, keyq in list(self._queues.items()):
                    if self._closed or (keyq.members
                                        and now >= keyq.members[0].deadline):
                        expired.append(self._take_batch_locked(
                            key, keyq, "close" if self._closed else "window"
                        ))
                if not expired:
                    if self._closed:
                        closing = True
                    else:
                        timeout = min(
                            (kq.members[0].deadline - now
                             for kq in self._queues.values() if kq.members),
                            default=None,
                        )
                        self._cond.wait(
                            timeout=max(timeout, 0.0)
                            if timeout is not None else None
                        )
            for batch in expired:
                self._flush(batch)
            if closing:
                return

    # -- observability ---------------------------------------------------
    def stats(self) -> SchedulerStats:
        """Immutable snapshot of the coalescing accounting."""
        with self._cond:
            return SchedulerStats(
                submitted=self._submitted,
                rejected=self._rejected,
                batches=self._batches,
                coalesced_rhs=self._coalesced_rhs,
                max_width=self._max_width,
                flushes=dict(self._flushes),
                rejected_tenants=dict(self._rejected_tenants),
            )
