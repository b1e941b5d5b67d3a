"""Outside-in per-layer timing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :func:`install` patches
the public entry points of each ``repro`` module *where they are
called* -- a class attribute for methods, the importing module's global
for functions -- with wrappers that time every call.  Each thread keeps
a stack of open calls, so a wrapper's *self* time is its duration minus
the durations of the wrapped calls it contains.  Self times of all
layers therefore add up to the wall time of the outermost calls.

Process-pool workers are covered too: the pool's task function is
replaced by :func:`traced_worker_run`, which measures kernel time inside
the worker and ships it back on the worker's run reports.

Accumulators are per thread and lock-free on the hot path; a fork hook
gives pool workers fresh ones, so a lock held by a parent thread at fork
time can never deadlock a worker.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "TRACER", "install", "uninstall", "traced_worker_run"]


class _ThreadTotals:
    """One thread's accumulators and its stack of open calls."""

    __slots__ = ("self_s", "calls", "counts", "client", "top_s", "stack")

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Client threads issue the timed requests; only their time is
        #: compared against the traced wall in ``attributed_frac``.
        self.client = False
        #: Summed duration of this thread's outermost calls.
        self.top_s = 0.0
        #: Per open call: seconds spent in its wrapped children so far.
        self.stack: List[float] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class LayerTracer:
    """Self-time accounting for wrapped calls, per layer and per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: id(group result) -> wall seconds of the coalesced dispatch
        #: that produced it (read by the scheduler-wait hook).
        self.dispatch_wall: Dict[int, float] = {}

    # -- accounting -------------------------------------------------------
    def _mine(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._lock:
                self._threads.append(totals)
        return totals

    def after_fork_in_child(self) -> None:
        """A pool worker starts from empty accumulators and a new lock."""
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def enter(self) -> Tuple[_ThreadTotals, float]:
        totals = self._mine()
        totals.stack.append(0.0)
        return totals, perf_counter()

    def exit(self, totals: _ThreadTotals, layer: str, t0: float) -> float:
        dt = perf_counter() - t0
        children = totals.stack.pop()
        if totals.stack:
            totals.stack[-1] += dt
        elif totals.client:
            totals.top_s += dt
        totals.self_s[layer] = totals.self_s.get(layer, 0.0) + dt - children
        totals.calls[layer] = totals.calls.get(layer, 0) + 1
        return dt

    def mark_client(self) -> None:
        """Declare the calling thread a request-issuing client."""
        self._mine().client = True

    def span(self, layer: str) -> "_Span":
        """Time a block of the benchmark's own code as ``layer``."""
        return _Span(self, layer)

    def reset(self) -> None:
        """Zero every accumulator (called once set-up has finished)."""
        with self._lock:
            for totals in self._threads:
                totals.self_s.clear()
                totals.calls.clear()
                totals.counts.clear()
                totals.top_s = 0.0
        self.dispatch_wall.clear()

    def totals(self, *, clients_only: bool = False):
        """``(self_s, calls, counts, top_s)`` summed over threads."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, float] = {}
        top_s = 0.0
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            if clients_only and not t.client:
                continue
            for key, v in t.self_s.items():
                self_s[key] = self_s.get(key, 0.0) + v
            for key, n in t.calls.items():
                calls[key] = calls.get(key, 0) + n
            for key, v in t.counts.items():
                counts[key] = counts.get(key, 0.0) + v
            top_s += t.top_s
        return self_s, calls, counts, top_s

    # -- patching ---------------------------------------------------------
    def wrap(
        self,
        owner,
        name: str,
        layer: str,
        *,
        count: Optional[str] = None,
        on_exit: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.name`` by a timed wrapper recorded as ``layer``.

        ``count`` names a counter bumped once per call; ``on_exit`` is
        called as ``on_exit(totals, result, seconds)`` after a
        successful call.
        """
        original = getattr(owner, name)
        tracer = self

        def traced(*args, **kwargs):
            totals, t0 = tracer.enter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = tracer.exit(totals, layer, t0)
            if count is not None:
                totals.add(count, 1)
            if on_exit is not None:
                on_exit(totals, result, dt)
            return result

        self.replace(owner, name, traced)

    def replace(self, owner, name: str, value) -> None:
        """``setattr`` that :meth:`restore` undoes."""
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _Span:
    __slots__ = ("_tracer", "_layer", "_state")

    def __init__(self, tracer: LayerTracer, layer: str):
        self._tracer = tracer
        self._layer = layer

    def __enter__(self) -> None:
        self._state = self._tracer.enter()

    def __exit__(self, *exc) -> None:
        totals, t0 = self._state
        self._tracer.exit(totals, self._layer, t0)


class _TimedLease:
    """``SharedMatrixStore.lease`` context whose enter/exit are timed."""

    __slots__ = ("_cm",)

    def __init__(self, cm):
        self._cm = cm

    def __enter__(self):
        totals, t0 = TRACER.enter()
        try:
            return self._cm.__enter__()
        finally:
            TRACER.exit(totals, "shard.lease", t0)

    def __exit__(self, *exc):
        totals, t0 = TRACER.enter()
        try:
            return self._cm.__exit__(*exc)
        finally:
            TRACER.exit(totals, "shard.lease", t0)


#: The process's one tracer (pool workers inherit it across fork).
TRACER = LayerTracer()
os.register_at_fork(after_in_child=TRACER.after_fork_in_child)

#: The pool task function :func:`traced_worker_run` delegates to.
_original_worker_run = None


def traced_worker_run(*args, **kwargs):
    """Pool task: run the shard group, report kernel time back.

    The kernel wrappers were installed in the parent before the pool
    forked, so they time ``compute`` inside this worker; the totals ride
    back as attributes of the first run report (frozen dataclasses
    pickle their ``__dict__``).
    """
    run = _original_worker_run
    if run is None:  # a worker that was not forked from a traced parent
        from repro.shard import backend

        run = backend._worker_run
    totals = TRACER._mine()
    compute0 = totals.self_s.get("kernels.compute", 0.0)
    launches0 = totals.counts.get("kernels.launches", 0.0)
    reports = run(*args, **kwargs)
    if reports:
        first = reports[0]
        object.__setattr__(
            first, "bench_compute_s",
            totals.self_s.get("kernels.compute", 0.0) - compute0,
        )
        object.__setattr__(
            first, "bench_launches",
            totals.counts.get("kernels.launches", 0.0) - launches0,
        )
    return reports


def _subclasses(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _wrap_overrides(base, name: str, layer: str, **kw) -> None:
    """Wrap ``name`` on every concrete class that defines it itself."""
    for cls in _subclasses(base):
        fn = cls.__dict__.get(name)
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            TRACER.wrap(cls, name, layer, **kw)


# -- hooks ----------------------------------------------------------------
def _count_replan(totals, decision, dt) -> None:
    if decision.replan:
        totals.add("learn.replans", 1)


def _record_dispatch(totals, result, dt) -> None:
    TRACER.dispatch_wall[id(result)] = dt


def _scheduler_wait(totals, scheduled, dt) -> None:
    # Every member waits for its group's dispatch; the wait is what the
    # member spent in ``submit`` beyond the dispatch itself.
    dispatch = TRACER.dispatch_wall.get(id(scheduled.batch), 0.0)
    totals.add("shard.scheduler.wait", max(0.0, dt - dispatch))


def _worker_reports(totals, reports, dt) -> None:
    if reports:
        totals.add("shard.worker", max(r.wall_end - r.wall_start
                                       for r in reports))
    for r in reports:
        totals.add("kernels.compute.worker", getattr(r, "bench_compute_s", 0.0))
        totals.add("kernels.launches", getattr(r, "bench_launches", 0.0))


def install() -> None:
    """Patch every traced entry point (before the server is built)."""
    global _original_worker_run

    import repro.core.framework as framework
    import repro.device.executor as dev_exec
    import repro.learn.selector as selector_mod
    import repro.serve.fingerprint as fp_mod
    import repro.shard.backend as backend
    import repro.shard.partition as partition
    import repro.solvers.methods as methods
    from repro.binning.base import BinningScheme
    from repro.blackbox.core import Blackbox
    from repro.core.framework import AutoTuner
    from repro.device.executor import SimulatedDevice
    from repro.kernels.base import Kernel
    from repro.resilient.executor import ResilientExecutor
    from repro.serve.frontdoor import FrontDoor
    from repro.serve.plan_cache import PlanCache
    from repro.serve.server import SpMVServer
    from repro.shard.executor import ShardedExecutor
    from repro.shard.scheduler import RequestScheduler
    from repro.solvers.session import SolverSession
    from repro.trace.recorder import TraceRecorder
    from repro.trace.slo import SLOMonitor

    w = TRACER.wrap
    # device: RHS-independent pricing, and the device's own loop.
    _wrap_overrides(Kernel, "cost", "device.price")
    _wrap_overrides(BinningScheme, "overhead_seconds", "device.price")
    w(dev_exec, "effective_gather_locality", "device.price")
    w(dev_exec, "dispatch_seconds", "device.price")
    w(SimulatedDevice, "run_spmv", "device")
    w(SimulatedDevice, "run_spmm", "device")
    # kernels: 1-RHS compute per launch; k-RHS gather + segmented sum.
    _wrap_overrides(Kernel, "compute", "kernels.compute",
                    count="kernels.launches")
    for module in (dev_exec, backend):
        w(module, "row_products_batch", "kernels.compute",
          count="kernels.launches")
        w(module, "segmented_sum_2d", "kernels.compute")
    # serve: front door, fingerprints, plan cache, entry points.
    w(FrontDoor, "admit", "serve.frontdoor")
    w(FrontDoor, "release", "serve.frontdoor")
    w(fp_mod.FingerprintCache, "fingerprint", "serve.fingerprint")
    w(fp_mod, "fingerprint_matrix", "serve.fingerprint.hash")
    w(PlanCache, "get_or_build", "serve.plan_cache")
    w(SpMVServer, "submit", "serve")
    w(SpMVServer, "submit_batch", "serve")
    w(SpMVServer, "invalidate", "serve.invalidate")
    # core / features / binning: the planner.
    w(AutoTuner, "plan", "core.plan")
    for module in (framework, selector_mod, partition):
        w(module, "extract_features", "features.extract")
    _wrap_overrides(BinningScheme, "bin_rows", "binning.bin_rows")
    # learn / resilient / trace / blackbox policies.
    w(selector_mod.OnlineSelector, "decide", "learn.decide",
      on_exit=_count_replan)
    w(selector_mod.OnlineSelector, "observe", "learn.observe")
    w(ResilientExecutor, "execute", "resilient")
    w(SLOMonitor, "observe", "trace.observe")
    w(TraceRecorder, "record", "trace.observe")
    w(TraceRecorder, "record_span", "trace.observe")
    w(Blackbox, "record_request", "blackbox.record")
    # shard: coalescing scheduler, sharded executor, process backend.
    w(RequestScheduler, "submit", "shard.scheduler", on_exit=_scheduler_wait)
    w(RequestScheduler, "_dispatch", "shard.scheduler",
      on_exit=_record_dispatch)
    w(ShardedExecutor, "run_spmv", "shard.executor")
    w(ShardedExecutor, "run_spmm", "shard.executor")
    w(backend.ProcessShardBackend, "execute", "shard.backend",
      on_exit=_worker_reports)
    w(backend.ProcessShardBackend, "_handle_crash", "shard.backend",
      count="shard.restarts")
    lease = backend.SharedMatrixStore.lease
    TRACER.replace(backend.SharedMatrixStore, "lease",
                   lambda store, digest, matrix:
                   _TimedLease(lease(store, digest, matrix)))
    _original_worker_run = backend._worker_run
    TRACER.replace(backend, "_worker_run", traced_worker_run)
    # solvers: CG's own vector work, and the session around submit.
    w(methods, "cg", "solvers.vector")
    w(SolverSession, "matvec", "solvers.session")


def uninstall() -> None:
    """Restore every patched name."""
    global _original_worker_run
    TRACER.restore()
    _original_worker_run = None
