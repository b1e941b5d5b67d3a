"""Kernel-level profiler over the analytical device model.

Hardware profilers sample counters; this repo's "device" *is* a cost
model, so the profiler can do better -- it evaluates every per-launch
cost term exactly.  For a matrix and a plan (or a whole (U, kernel)
sweep) it reports, per (granularity U, bin id, kernel):

- **simulated lane occupancy**: the fraction of launched SIMD lane
  slots doing useful work (non-zeros + per-row bookkeeping vs lanes
  reserved), the divergence/padding waste the paper's binning exists
  to reduce;
- **wave residency**: resident wavefronts per CU vs the hardware cap
  (latency-hiding headroom);
- **memory-vs-compute split**: the roofline terms from
  :func:`repro.device.dispatch.dispatch_breakdown`, with the dominant
  wall named;
- **roofline efficiency**: achieved FLOP/s over the lesser of the
  device's peak compute rate and its bandwidth-limited rate for the
  launch's actual byte traffic.

Everything derives from the deterministic cost models -- profiling the
same matrix twice yields byte-identical reports (pinned by test).  Each
launch is priced at the device's effective gather locality, the one
:meth:`~repro.device.executor.SimulatedDevice.bind` prices at, so a
plan's profile total is the sum of its bound plan's dispatch seconds:
kernel seconds, without launch or binning overhead.

The module imports the model layers (binning, kernels, device
spec/dispatch/memory) and the plan type, which brings in the simulated
device, but no serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.binning.coarse import DEFAULT_GRANULARITIES, CoarseBinning
from repro.core.plan import ExecutionPlan
from repro.device.dispatch import DispatchStats, dispatch_breakdown
from repro.device.memory import effective_gather_locality
from repro.device.spec import DeviceSpec
from repro.formats.csr import CSRMatrix
from repro.kernels.base import ROW_OVERHEAD_INSTR, Kernel, price_launches
from repro.kernels.registry import DEFAULT_KERNEL_NAMES, get_kernel

__all__ = ["DispatchProfile", "ProfileReport", "KernelProfiler"]


@dataclass(frozen=True)
class DispatchProfile:
    """Full cost-model accounting of one (U, bin, kernel) launch."""

    #: Coarse granularity the binning ran at (0 = externally binned).
    granularity: int
    bin_id: int
    kernel: str
    n_rows: int
    nnz: int
    #: Launch geometry.
    n_waves: float
    n_workgroups: float
    #: Useful lane-work over reserved lane-slots, in (0, 1].
    lane_occupancy: float
    #: Resident wavefronts per CU over the hardware residency cap.
    wave_residency: float
    #: Roofline terms in simulated seconds.
    compute_seconds: float
    bandwidth_seconds: float
    latency_seconds: float
    overhead_seconds: float
    total_seconds: float
    #: Which wall (``compute`` / ``bandwidth`` / ``latency``) binds.
    dominant: str
    #: Achieved FLOP/s over the launch's roofline ceiling, in (0, 1].
    roofline_efficiency: float
    #: Achieved simulated GFLOP/s.
    gflops: float

    @property
    def memory_fraction(self) -> float:
        """Memory-side share (bandwidth + latency) of the term mass."""
        mem = self.bandwidth_seconds + self.latency_seconds
        denom = mem + self.compute_seconds
        return mem / denom if denom > 0 else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """An ordered collection of dispatch profiles plus device context."""

    device: str
    matrix_shape: Tuple[int, int]
    matrix_nnz: int
    rows: Tuple[DispatchProfile, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def total_seconds(self) -> float:
        """Simulated kernel seconds across all profiled launches (no
        launch or binning overhead)."""
        return float(sum(r.total_seconds for r in self.rows))

    def by_kernel(self) -> Dict[str, List[DispatchProfile]]:
        """Rows grouped by kernel name, insertion-ordered."""
        out: Dict[str, List[DispatchProfile]] = {}
        for r in self.rows:
            out.setdefault(r.kernel, []).append(r)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "device": self.device,
            "matrix_shape": list(self.matrix_shape),
            "matrix_nnz": self.matrix_nnz,
            "total_seconds": self.total_seconds(),
            "dispatches": [
                {
                    "granularity": r.granularity,
                    "bin_id": r.bin_id,
                    "kernel": r.kernel,
                    "n_rows": r.n_rows,
                    "nnz": r.nnz,
                    "n_waves": r.n_waves,
                    "n_workgroups": r.n_workgroups,
                    "lane_occupancy": r.lane_occupancy,
                    "wave_residency": r.wave_residency,
                    "compute_seconds": r.compute_seconds,
                    "bandwidth_seconds": r.bandwidth_seconds,
                    "latency_seconds": r.latency_seconds,
                    "overhead_seconds": r.overhead_seconds,
                    "total_seconds": r.total_seconds,
                    "dominant": r.dominant,
                    "memory_fraction": r.memory_fraction,
                    "roofline_efficiency": r.roofline_efficiency,
                    "gflops": r.gflops,
                }
                for r in self.rows
            ],
        }

    def describe(self) -> str:
        """Readable roofline-style table, one line per dispatch."""
        m, n = self.matrix_shape
        lines = [
            f"kernel profile on {self.device}",
            f"matrix {m}x{n}, nnz={self.matrix_nnz}; "
            f"{len(self.rows)} dispatch(es), "
            f"{self.total_seconds() * 1e3:.3f} ms simulated",
            f"  {'U':>7s} {'bin':>4s} {'kernel':<12s} {'rows':>8s} "
            f"{'nnz':>9s} {'lane%':>6s} {'resid%':>6s} {'mem%':>5s} "
            f"{'wall':<9s} {'eff%':>5s} {'time':>10s}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.granularity:>7d} {r.bin_id:>4d} {r.kernel:<12s} "
                f"{r.n_rows:>8d} {r.nnz:>9d} "
                f"{r.lane_occupancy * 100:>5.1f}% "
                f"{r.wave_residency * 100:>5.1f}% "
                f"{r.memory_fraction * 100:>4.0f}% "
                f"{r.dominant:<9s} "
                f"{r.roofline_efficiency * 100:>4.1f}% "
                f"{r.total_seconds * 1e6:>8.2f}us"
            )
        return "\n".join(lines)


class KernelProfiler:
    """Evaluates the analytical cost model into dispatch profiles.

    Every call re-runs the model; its one caller in the package, the
    CLI's ``trace`` command, profiles one plan or one sweep per command.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None):
        self.spec = DeviceSpec.kaveri_apu() if spec is None else spec

    def _profiles(
        self,
        lengths: np.ndarray,
        launches: Sequence[Tuple[int, Kernel, np.ndarray]],
        locality: float,
        granularity: int,
    ) -> List[DispatchProfile]:
        """Profiles of ``(bin_id, kernel, rows)`` launches over non-empty
        bins of a matrix with row ``lengths``, in order; each kernel's
        launches are priced in one batch."""
        stats = price_launches(lengths, [(k, rows) for _, k, rows in launches],
                               locality, self.spec)
        return [
            self._profile(kernel.name, s, len(rows), int(lengths[rows].sum()),
                          granularity, b)
            for (b, kernel, rows), s in zip(launches, stats)
        ]

    def _profile(
        self,
        kernel_name: str,
        stats: DispatchStats,
        n_rows: int,
        nnz: int,
        granularity: int,
        bin_id: int,
    ) -> DispatchProfile:
        """The profile of one priced launch."""
        spec = self.spec
        bd = dispatch_breakdown(stats, spec)
        # Useful lane-work: one MAC slot per non-zero plus the per-row
        # bookkeeping every lane organisation pays; reserved lane-slots:
        # every launched wavefront holds wavefront_size lanes for its
        # whole (divergence-padded) instruction stream.
        useful = nnz + ROW_OVERHEAD_INSTR * n_rows
        reserved = stats.n_waves * spec.wavefront_size * max(
            stats.compute_instructions / stats.n_waves, 1.0
        ) if stats.n_waves > 0 else 0.0
        lane_occupancy = min(1.0, useful / reserved) if reserved > 0 else 0.0

        cap = float(spec.max_waves_per_cu)
        wave_residency = min(1.0, bd.resident_waves / cap) if cap > 0 else 0.0

        total_seconds = spec.seconds(bd.total)
        flops = 2.0 * nnz  # one multiply + one add per stored non-zero
        achieved = flops / total_seconds if total_seconds > 0 else 0.0
        # Roofline ceiling for *this* launch: peak issue converted to
        # FLOP/s vs the bandwidth-limited rate of its actual byte
        # traffic (arithmetic intensity is per-launch, not per-device).
        peak_flops = spec.issue_rate * spec.wavefront_size * spec.clock_hz
        traffic = stats.memory_lines * spec.cacheline_bytes
        bw_flops = (
            flops * spec.mem_bandwidth_bytes / traffic
            if traffic > 0 else peak_flops
        )
        ceiling = min(peak_flops, bw_flops)
        efficiency = min(1.0, achieved / ceiling) if ceiling > 0 else 0.0

        return DispatchProfile(
            granularity=int(granularity),
            bin_id=int(bin_id),
            kernel=kernel_name,
            n_rows=n_rows,
            nnz=nnz,
            n_waves=float(stats.n_waves),
            n_workgroups=float(stats.n_workgroups),
            lane_occupancy=float(lane_occupancy),
            wave_residency=float(wave_residency),
            compute_seconds=spec.seconds(bd.compute),
            bandwidth_seconds=spec.seconds(bd.bandwidth),
            latency_seconds=spec.seconds(bd.latency),
            overhead_seconds=spec.seconds(bd.overhead),
            total_seconds=total_seconds,
            dominant=bd.dominant,
            roofline_efficiency=float(efficiency),
            gflops=float(achieved / 1e9),
        )

    # -- whole plans -----------------------------------------------------
    def profile_plan(self, matrix: CSRMatrix,
                     plan: ExecutionPlan) -> ProfileReport:
        """Profile every launch an execution plan would make.

        Each kernel's launches are priced in one batch; the report lists
        them in bin order, and its total is the plan's bound dispatch
        seconds.
        """
        launches = [(b, get_kernel(plan.bin_kernels[b]), rows)
                    for b, rows in plan.binning.non_empty()]
        return self._report(matrix, self._profiles(
            matrix.row_lengths(), launches,
            effective_gather_locality(matrix, self.spec),
            getattr(plan.scheme, "u", 0)))

    def _report(self, matrix: CSRMatrix,
                rows: Sequence[DispatchProfile]) -> ProfileReport:
        return ProfileReport(
            device=self.spec.name,
            matrix_shape=(matrix.nrows, matrix.ncols),
            matrix_nnz=matrix.nnz,
            rows=tuple(rows),
        )

    # -- (U, bin, kernel) sweeps -----------------------------------------
    def sweep(
        self,
        matrix: CSRMatrix,
        *,
        granularities: Iterable[int] = DEFAULT_GRANULARITIES,
        kernel_names: Sequence[str] = DEFAULT_KERNEL_NAMES,
    ) -> ProfileReport:
        """Profile every (U, non-empty bin, kernel) combination.

        The exhaustive view behind the paper's tuning tables: for each
        granularity, bin the matrix, then cost every candidate kernel
        on every non-empty bin.  Deterministic and purely analytical --
        no kernel actually computes anything.
        """
        loc = effective_gather_locality(matrix, self.spec)
        lengths = matrix.row_lengths()
        kernels = [get_kernel(name) for name in kernel_names]
        rows: List[DispatchProfile] = []
        for u in granularities:
            # Bin-major, kernel-minor.
            launches = [(b, kernel, bin_rows) for b, bin_rows in
                        CoarseBinning(u).bin_rows(matrix).non_empty()
                        for kernel in kernels]
            rows.extend(self._profiles(lengths, launches, loc, u))
        return self._report(matrix, rows)
