"""Simulated device executor: run a binned SpMV plan, account its time.

The paper's framework executes SpMV as a *sequence of kernel launches*,
one per non-empty bin (each bin's rows processed by that bin's selected
kernel).  :class:`SimulatedDevice` accounts simulated time the same way,
launch by launch, with each kernel's ``cost`` plus the per-launch
overhead.  Every kernel computes the same per-row sums, so a launch
only prices: the device computes the numerical result once per request,
in one pass over the whole CSR, whatever the plan's launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.memory import effective_gather_locality
from repro.device.spec import DeviceSpec
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.kernels.base import Kernel, price_launches, row_dots
# The per-layer tracer (perfbench/layers.py) times these two names on
# this module as well as on the shard backend's.
from repro.kernels.base import row_products_batch  # noqa: F401
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.spans import current_trace, trace_event
from repro.utils.primitives import segmented_sum_2d  # noqa: F401
from repro.utils.validation import check_spmm_operand, check_spmv_operand

__all__ = ["SimulatedDevice", "BoundPlan", "SpMVResult", "SpMMResult", "Dispatch"]

#: One unit of launch work: a kernel and the actual row indices it covers.
Dispatch = Tuple[Kernel, np.ndarray]


@dataclass(frozen=True)
class SpMVResult:
    """Outcome of one simulated binned execution, one or k right-hand sides."""

    #: The numerical result: ``(nrows,)`` for a vector, ``(nrows, k)``
    #: for a block.
    y: np.ndarray
    #: Total simulated seconds (kernel time + launch overheads).
    seconds: float
    #: Per-dispatch simulated seconds (excluding the fixed launch cost).
    dispatch_seconds: Tuple[float, ...]
    #: Seconds spent in fixed kernel-launch overhead.
    launch_seconds: float
    #: Number of right-hand sides served.
    n_rhs: int = 1
    #: Dispatch sequences (passes) that produced this result: the column
    #: blocks of a ``max_rhs`` split, each re-paying the plan's launches
    #: (0 for a block with no columns).
    n_passes: int = 1

    @property
    def u(self) -> np.ndarray:
        """The result vector (alias of :attr:`y`)."""
        return self.y

    @property
    def U(self) -> np.ndarray:
        """The result block (alias of :attr:`y`)."""
        return self.y

    @property
    def n_dispatches(self) -> int:
        """Total kernel launches across all passes (independent of k)."""
        return len(self.dispatch_seconds)


#: The multi-RHS name of the one result type.
SpMMResult = SpMVResult


def _scale_stats_for_rhs(stats: DispatchStats, n_rhs: int) -> DispatchStats:
    """Multi-RHS cost scaling for one dispatch.

    Streaming terms grow with the batch width: every extra column pays
    its own gather/store traffic and its own FMAs, so ``memory_lines``
    and the instruction counts scale by ``k``.  The latency chain does
    not -- the column walk that produces the dependent loads is traversed
    once, with the extra columns riding on the same ``colidx`` stream --
    and the dispatch geometry (waves, workgroups, LDS) is unchanged, so
    the plan's launch overhead is paid once however wide the batch is.
    """
    if n_rhs <= 1:
        return stats
    k = float(n_rhs)
    return DispatchStats(
        compute_instructions=stats.compute_instructions * k,
        longest_wave_instructions=stats.longest_wave_instructions * k,
        longest_dependent_iterations=stats.longest_dependent_iterations,
        memory_lines=stats.memory_lines * k,
        n_waves=stats.n_waves,
        n_workgroups=stats.n_workgroups,
        lds_bytes_per_wg=stats.lds_bytes_per_wg,
    )


def _check_coverage(nrows: int, dispatches: Sequence[Dispatch]) -> None:
    """Raise unless the dispatches partition ``range(nrows)``: ``nrows``
    indices, all in range, that miss no row -- O(nrows), no sort."""
    covered = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.asarray(rows, dtype=np.int64) for _, rows in dispatches
    ])
    partition = len(covered) == nrows and (
        nrows == 0 or (0 <= covered.min() and covered.max() < nrows
                       and np.bincount(covered, minlength=nrows).all()))
    if not partition:
        raise DeviceError(
            f"dispatches cover {len(covered)} rows "
            f"(unique {len(np.unique(covered))}), matrix has {nrows}"
        )


@dataclass(frozen=True, eq=False)
class BoundPlan:
    """A dispatch sequence priced once for one structure.

    Holds only what does not depend on the right-hand side -- each
    launch's kernel, row count and cost statistics, the extra (binning)
    overhead, per-width dispatch seconds, and the structure's non-empty
    rows with their CSR starts, which the one compute pass reduces at --
    never values and never views of the matrix, so one bound plan serves
    every matrix with its structure, and a warm run pays only for
    products and reductions.
    """

    spec: DeviceSpec
    nrows: int
    nnz: int
    #: ``(kernel, n_rows, stats)`` per launch, empty row sets dropped.
    dispatches: Tuple[Tuple[Kernel, int, DispatchStats], ...]
    #: Extra accounted seconds, charged once per execution.
    overhead: float
    #: Indices of the structure's non-empty rows, ascending.
    nonempty: np.ndarray
    #: ``rowptr`` at each of :attr:`nonempty` (a copy, not a view).
    starts: np.ndarray
    _times: Dict[int, Tuple[float, ...]] = field(default_factory=dict, repr=False)

    def pass_times(self, n_rhs: int) -> Tuple[float, ...]:
        """Per-dispatch simulated seconds of one pass ``n_rhs`` wide."""
        times = self._times.get(n_rhs)
        if times is None:
            times = tuple(
                dispatch_seconds(_scale_stats_for_rhs(stats, n_rhs), self.spec)
                for _kernel, _n_rows, stats in self.dispatches
            )
            self._times[n_rhs] = times
        return times

    def predicted_seconds(self) -> float:
        """Simulated seconds of one single-RHS run, as a planner predicts.

        Summed overhead first, then ``dispatch + launch`` per launch --
        the planner's order, which :meth:`SimulatedDevice.run` (one
        ``sum`` per pass) does not share bit for bit.
        """
        launch = self.spec.seconds(self.spec.kernel_launch_cycles)
        total = self.overhead
        for t in self.pass_times(1):
            total += t + launch
        return float(total)

    def binds(self, matrix: CSRMatrix, spec: DeviceSpec) -> bool:
        """True when this plan was bound for ``matrix``'s size on ``spec``."""
        return (matrix.nrows == self.nrows and matrix.nnz == self.nnz
                and (spec is self.spec or spec == self.spec))


class SimulatedDevice:
    """Executes kernel dispatch sequences on the analytical device model.

    Parameters
    ----------
    spec:
        Device constants; defaults to the paper's Kaveri APU.
    registry:
        Metrics registry receiving per-kernel dispatch counters
        (``device_dispatches_total{kernel=...}``), per-kernel simulated
        dispatch-time histograms and the accumulated launch-overhead
        counter.  Defaults to the process-global registry.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec if spec is not None else DeviceSpec.kaveri_apu()
        self.registry = get_registry() if registry is None else registry
        self._m_launch_seconds = self.registry.counter(
            "device_kernel_launch_seconds_total",
            help_text="Simulated seconds of fixed kernel-launch overhead.",
        )

    def _record_dispatch(self, kernel: Kernel, seconds: float,
                         op: str) -> None:
        """Feed one kernel launch into the registry."""
        labels = {"kernel": kernel.name, "op": op}
        self.registry.counter(
            "device_dispatches_total", labels,
            help_text="Kernel launches per kernel and operation.",
        ).inc()
        self.registry.histogram(
            "device_dispatch_seconds", labels,
            help_text="Simulated seconds per kernel launch "
                      "(excluding fixed launch overhead).",
        ).observe(seconds)

    # ------------------------------------------------------------------
    def time_dispatch(
        self,
        kernel: Kernel,
        row_lengths: np.ndarray,
        locality: float,
        *,
        include_launch: bool = True,
    ) -> float:
        """Simulated seconds for one kernel launch over the given rows.

        Prices a candidate kernel on a row set; a chosen plan is priced
        by :meth:`bind`.
        """
        t = dispatch_seconds(kernel.cost(row_lengths, locality, self.spec),
                             self.spec)
        if include_launch and len(np.atleast_1d(row_lengths)) > 0:
            t += self.spec.seconds(self.spec.kernel_launch_cycles)
        return t

    # ------------------------------------------------------------------
    def bind(self, matrix: CSRMatrix, dispatches: Sequence[Dispatch], *,
             locality: Optional[float] = None,
             extra_seconds: float = 0.0) -> BoundPlan:
        """Price ``(kernel, rows)`` dispatches for ``matrix``'s structure.

        Each pair becomes one launch over exactly those rows; empty row
        sets are dropped (no launch, no cost).  Each kernel prices all of
        its launches in one batch.  ``locality`` defaults to the
        matrix's measured gather locality.  A malformed plan (rows not
        partitioning the matrix) raises :class:`DeviceError`.
        ``extra_seconds`` (e.g. the scheme's binning overhead) is
        charged once per execution.
        """
        g = (effective_gather_locality(matrix, self.spec) if locality is None
             else float(locality))
        _check_coverage(matrix.nrows, dispatches)
        lengths = matrix.row_lengths()
        launches = [(kernel, np.asarray(rows, dtype=np.int64))
                    for kernel, rows in dispatches if len(rows)]
        stats = price_launches(lengths, launches, g, self.spec)
        nonempty = np.flatnonzero(lengths)
        return BoundPlan(self.spec, matrix.nrows, matrix.nnz, tuple(
            (kernel, len(rows), s) for (kernel, rows), s in zip(launches, stats)
        ), extra_seconds, nonempty, matrix.rowptr[nonempty])

    # ------------------------------------------------------------------
    def run(self, matrix: CSRMatrix, rhs: np.ndarray,
            dispatches: Union[Sequence[Dispatch], BoundPlan], *,
            max_rhs: Optional[int] = None) -> SpMVResult:
        """Execute a plan against a vector or an ``(ncols, k)`` block.

        The operand's shape is the only thing that chooses: a 2-D
        ``rhs`` runs through :meth:`run_spmm` (``max_rhs`` caps its
        pass width), anything else through :meth:`run_spmv`.
        """
        if np.ndim(rhs) == 2:
            return self.run_spmm(matrix, rhs, dispatches, max_rhs=max_rhs)
        return self.run_spmv(matrix, rhs, dispatches)

    def run_spmv(self, matrix: CSRMatrix, v: np.ndarray,
                 dispatches: Union[Sequence[Dispatch], BoundPlan],
                 **binding) -> SpMVResult:
        """Execute a binned SpMV plan.

        ``dispatches`` is a :class:`BoundPlan` (run as bound, nothing
        re-priced) or raw ``(kernel, rows)`` pairs, bound first with
        ``binding`` (the keywords of :meth:`bind`).  The operand is
        checked on every call.
        """
        return self._run(matrix, check_spmv_operand(matrix.ncols, v),
                         dispatches, binding)

    def run_spmm(self, matrix: CSRMatrix, dense: np.ndarray,
                 dispatches: Union[Sequence[Dispatch], BoundPlan], *,
                 max_rhs: Optional[int] = None, **binding) -> SpMVResult:
        """Execute one binned plan against a multi-RHS block ``(ncols, k)``.

        The batched :meth:`run_spmv`, through the same body: each column
        is reduced on its own, so column ``j`` is bit-identical to
        ``run_spmv(matrix, dense[:, j], ...).y``.  A ``max_rhs`` cap
        below ``k`` splits the block into column blocks, each a separate
        dispatch sequence re-paying the launches (``n_passes``); the
        extra (binning) overhead is charged once.  A block with no
        columns runs no pass: no launch, no dispatch record, only the
        extra overhead.
        """
        return self._run(matrix, check_spmm_operand(matrix.ncols, dense),
                         dispatches, binding, max_rhs)

    def _run(self, matrix: CSRMatrix, rhs: np.ndarray, dispatches,
             binding: dict, max_rhs: Optional[int] = None) -> SpMVResult:
        """One execution body for SpMV (1-D ``rhs``) and SpMM (2-D).

        ``y`` is computed once, each row one ``reduceat`` segment over
        its entries in CSR order -- what every kernel's fast path sums,
        launch by launch.  The launches then only price: seconds are
        ``overhead + (sum + launch)`` per pass; addition commutes, so
        one pass equals ``sum + launch + overhead``.
        """
        if not isinstance(dispatches, BoundPlan):
            bound = self.bind(matrix, dispatches, **binding)
        elif binding or not dispatches.binds(matrix, self.spec):
            raise DeviceError("a bound plan runs only on its structure and "
                              "device spec, without binding keywords")
        else:
            bound = dispatches
        batch = rhs.ndim == 2
        k = rhs.shape[1] if batch else 1
        split = max_rhs is not None and k > max_rhs
        if split and max_rhs <= 0:
            raise ValueError(f"max_rhs must be > 0, got {max_rhs}")
        step = max_rhs if split else max(k, 1)
        blocks = [(lo, min(lo + step, k)) for lo in range(0, k, step)]
        op = "spmm" if batch else "spmv"
        # One boolean decides tracing for the whole call; untraced runs
        # pay a single thread-local read.
        traced = current_trace() is not None
        if traced:
            w0 = perf_counter()
        out = np.zeros((matrix.nrows,) + rhs.shape[1:])
        # Column-major once: each column is then one contiguous row.
        row_dots(matrix.val, matrix.colidx, bound.starts, bound.nonempty,
                 np.asfortranarray(rhs) if batch else rhs, out)
        if traced:
            w1 = perf_counter()
            trace_event("device.compute", w0, w1, attrs={"op": op, "n_rhs": k})
        launch_s = len(bound.dispatches) * self.spec.seconds(
            self.spec.kernel_launch_cycles
        )
        seconds, all_times, launch_total = bound.overhead, [], 0.0
        for lo, hi in blocks:
            times = bound.pass_times(hi - lo)
            for (kernel, n_rows, _stats), t in zip(bound.dispatches, times):
                if traced:
                    trace_event(
                        "device.dispatch", w1, w1,
                        attrs={"kernel": kernel.name, "op": op,
                               "rows": n_rows,
                               **({"n_rhs": hi - lo} if batch else {}),
                               "simulated_seconds": t},
                    )
                self._record_dispatch(kernel, t, op=op)
            self._m_launch_seconds.inc(launch_s)
            seconds += float(sum(times) + launch_s)
            all_times.extend(times)
            launch_total += launch_s
        return SpMVResult(out, float(seconds), tuple(all_times), launch_total,
                          k, len(blocks))
