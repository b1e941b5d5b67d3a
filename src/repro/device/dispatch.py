"""Dispatch cost accounting: from per-kernel statistics to seconds.

Every kernel's cost model reduces its launch over a bin to one
:class:`DispatchStats` record -- total wavefront instructions, memory
transactions, the longest dependent-iteration chain and the dispatch
geometry.  :func:`dispatch_seconds` combines those into simulated time
with a three-term roofline:

``cycles = max(compute, bandwidth, latency) + scheduling overheads``

- *compute*: total wavefront instructions over the device issue rate,
  degraded when too few wavefronts exist to fill the machine, floored by
  the longest single wavefront (one SIMD executes it at 1 instruction
  per ``waves_per_workgroup`` cycles... more precisely per 4 cycles on
  GCN).
- *bandwidth*: cache-line transactions over DRAM bandwidth.
- *latency*: the longest chain of dependent loads, divided by how many
  resident wavefronts are available to hide it (the occupancy model).

This is the standard analytical-GPU-model decomposition (roofline +
latency extension); no term encodes anything SpMV-specific.

A *batch* of launches is one record whose fields are arrays, one entry
per launch: the kernels price several bins in one pass, and
:func:`dispatch_breakdown` and :func:`dispatch_seconds` then work on it
elementwise, each entry equal bit for bit to that launch priced alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

import numpy as np

from repro.device.occupancy import resident_waves
from repro.device.spec import DeviceSpec
from repro.errors import DeviceError

__all__ = [
    "DispatchStats",
    "CycleBreakdown",
    "dispatch_breakdown",
    "dispatch_seconds",
    "dispatch_cycles",
]


def _unbatch(record) -> list:
    """The per-launch records of a batch, with Python scalar fields; a
    record of one launch is its own."""
    values = [getattr(record, f.name) for f in fields(record)]
    n = next((len(v) for v in values if isinstance(v, np.ndarray)), None)
    if n is None:
        return [record]
    columns = [v.tolist() if isinstance(v, np.ndarray) else [v] * n
               for v in values]
    return [type(record)(*row) for row in zip(*columns)]


@dataclass(frozen=True)
class DispatchStats:
    """Aggregate execution statistics of one kernel launch over one bin.

    In a batch every count is an array with one entry per launch;
    ``lds_bytes_per_wg`` is the kernel's and stays one ``int``.
    """

    #: Total wavefront-instructions issued (divergence already included:
    #: a wavefront runs as long as its slowest lane's row).
    compute_instructions: float
    #: Instructions of the single longest wavefront.
    longest_wave_instructions: float
    #: Longest chain of *dependent* memory-bearing iterations (for the
    #: latency term; one dependent DRAM access per iteration).
    longest_dependent_iterations: float
    #: Total cache-line transactions to DRAM.
    memory_lines: float
    #: Wavefronts launched.
    n_waves: float
    #: Work-groups launched.
    n_workgroups: float
    #: LDS bytes reserved per work-group (occupancy input).
    lds_bytes_per_wg: int = 0

    def __post_init__(self) -> None:
        for name in (
            "compute_instructions",
            "longest_wave_instructions",
            "longest_dependent_iterations",
            "memory_lines",
            "n_waves",
            "n_workgroups",
        ):
            value = getattr(self, name)
            if (value < 0).any() if isinstance(value, np.ndarray) else value < 0:
                raise DeviceError(f"{name} must be >= 0")

    @staticmethod
    def empty() -> "DispatchStats":
        """Stats of a dispatch over an empty bin (no launch at all)."""
        return DispatchStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def unbatch(self) -> List["DispatchStats"]:
        """One record per launch of a batch, with ``float`` fields
        (``[self]`` for one launch)."""
        return _unbatch(self)

    def merge(self, other: "DispatchStats") -> "DispatchStats":
        """Combine two dispatches launched back-to-back as one record.

        Used by kernels that internally split work (e.g. CSR-Adaptive's
        per-block kernel selection inside a single launch).
        """
        return DispatchStats(
            self.compute_instructions + other.compute_instructions,
            max(self.longest_wave_instructions, other.longest_wave_instructions),
            max(
                self.longest_dependent_iterations,
                other.longest_dependent_iterations,
            ),
            self.memory_lines + other.memory_lines,
            self.n_waves + other.n_waves,
            self.n_workgroups + other.n_workgroups,
            max(self.lds_bytes_per_wg, other.lds_bytes_per_wg),
        )


@dataclass(frozen=True)
class CycleBreakdown:
    """Per-term cycle accounting of one dispatch (the profiler's view).

    The four roofline components *before* the overlap combination, plus
    the combined total.  ``total`` is exactly what
    :func:`dispatch_cycles` returns; the individual terms let a
    profiler report which wall a launch sat against and how the
    memory/compute time splits.
    """

    #: Instruction-issue cycles (incl. the longest-wavefront floor).
    compute: float
    #: DRAM-transfer cycles at achievable bandwidth.
    bandwidth: float
    #: Exposed dependent-load latency cycles after hiding.
    latency: float
    #: Work-group scheduling overhead cycles.
    overhead: float
    #: Combined cycles (roofline max + overlap leak + overhead).
    total: float
    #: Wavefronts resident per CU (the latency-hiding capability).
    resident_waves: float

    def unbatch(self) -> List["CycleBreakdown"]:
        """One breakdown per launch of a batch, with ``float`` fields
        (``[self]`` for one launch)."""
        return _unbatch(self)

    @property
    def dominant(self) -> str:
        """Which roofline wall bounds this dispatch."""
        terms = {
            "compute": self.compute,
            "bandwidth": self.bandwidth,
            "latency": self.latency,
        }
        return max(terms, key=lambda k: terms[k])


def dispatch_breakdown(stats: DispatchStats, spec: DeviceSpec) -> CycleBreakdown:
    """Per-term cycles for one kernel launch (excluding the fixed
    kernel-launch overhead, which the executor adds once per launch).

    On a batch every term is an array, computed elementwise in the same
    order as for one launch.
    """
    n_waves = stats.n_waves
    batch = isinstance(n_waves, np.ndarray)
    if not batch and n_waves <= 0:
        return CycleBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    lo, hi = (np.minimum, np.maximum) if batch else (min, max)

    # --- compute term -------------------------------------------------
    # The device issues spec.issue_rate wavefront-instructions per cycle
    # when enough waves exist to fill every SIMD; small dispatches only
    # engage ceil(n_waves) SIMD slots.
    simd_slots = spec.num_cus * spec.simd_per_cu
    fill = lo(1.0, n_waves / simd_slots)
    issue = spec.issue_rate * hi(fill, 1.0 / simd_slots)
    compute = stats.compute_instructions / issue
    # One SIMD needs ~4 cycles per wavefront instruction (16 lanes x 4).
    longest_wave_cycles = stats.longest_wave_instructions * 4.0
    compute = hi(compute, longest_wave_cycles)

    # --- bandwidth term -------------------------------------------------
    bandwidth = stats.memory_lines * spec.cacheline_bytes / spec.bytes_per_cycle

    # --- latency term ---------------------------------------------------
    hiding = resident_waves(spec, n_waves, stats.lds_bytes_per_wg)
    latency = (
        stats.longest_dependent_iterations * spec.mem_latency_cycles / hi(hiding, 1.0)
    )

    # --- imperfect overlap -----------------------------------------------
    # A pure roofline (max of the terms) assumes the kernel keeps the
    # memory system saturated while computing; divergent irregular
    # kernels do not, so the non-dominant terms partially serialise.
    primary = hi(hi(compute, bandwidth), latency)
    secondary = compute + bandwidth + latency - primary
    cycles = primary + spec.overlap_penalty * secondary

    # --- scheduling overhead ---------------------------------------------
    # Work-groups are distributed over CUs; each costs launch cycles on
    # its CU, pipelined across the device.
    overhead = stats.n_workgroups * spec.workgroup_launch_cycles / spec.num_cus
    terms = (compute, bandwidth, latency, overhead, cycles + overhead, hiding)
    if batch:
        launched = n_waves > 0
        return CycleBreakdown(*(np.where(launched, t, 0.0) for t in terms))
    return CycleBreakdown(*map(float, terms))


def dispatch_cycles(stats: DispatchStats, spec: DeviceSpec) -> float:
    """Simulated GPU cycles for one kernel launch (excluding the fixed
    kernel-launch overhead, which the executor adds once per launch)."""
    return dispatch_breakdown(stats, spec).total


def dispatch_seconds(stats: DispatchStats, spec: DeviceSpec) -> float:
    """Simulated seconds for one kernel launch (no fixed launch cost);
    an array of them for a batch."""
    return spec.seconds(dispatch_cycles(stats, spec))
