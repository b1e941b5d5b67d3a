"""Heterogeneous bin scheduling across the APU's GPU and CPU.

The paper's §VI future work: "it would be promising to schedule the
execution of the small sized but high volume bins onto the
throughput-oriented processors and the large sized but low volume bins
onto the latency-oriented processors".  On the paper's HSA platform both
devices share memory (SVM), so bins can be split freely with no copies.

This module implements that idea on top of an execution plan:

- :class:`CPUModelSpec` -- an analytical model of the APU's CPU side
  (4 cores at 3.7 GHz, SIMD throughput, shared DRAM): latency-oriented,
  so tiny or few-row bins run without the GPU's launch/occupancy taxes;
- :class:`HeterogeneousScheduler` -- assigns every non-empty bin to the
  device where it is faster, runs both queues concurrently (makespan =
  max of the two loads) and computes the numerical result with the
  assigned executor per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.device.executor import SimulatedDevice
from repro.device.memory import CSR_ELEMENT_BYTES, VALUE_BYTES, \
    effective_gather_locality
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.kernels.base import Kernel
from repro.kernels.registry import get_kernel

__all__ = ["CPUModelSpec", "HeterogeneousScheduler", "HeteroResult"]


@dataclass(frozen=True)
class CPUModelSpec:
    """Analytical model of the APU's latency-oriented CPU side."""

    #: Physical cores (A10-7850K: 4 at up to 3.7 GHz).
    n_cores: int = 4
    clock_hz: float = 3.7e9
    #: Sustained cycles per non-zero on one core (SIMD FMA + gather).
    cycles_per_element: float = 1.5
    #: DRAM bytes/second available to the CPU side (shared controller).
    mem_bandwidth_bytes: float = 20e9
    #: Seconds to dispatch one bin as a CPU task (no kernel finalisation,
    #: no work-group machinery -- just a function call + task wakeup).
    task_overhead_s: float = 2e-6

    def bin_seconds(self, lengths: np.ndarray, locality: float) -> float:
        """Simulated CPU seconds for one bin's rows.

        Compute: elements spread over the cores.  Memory: streamed matrix
        data plus the gather (the CPU's large caches make gathers cheap
        when locality is decent).  A latency-oriented core has no
        divergence or occupancy penalties -- which is exactly why the
        few-long-rows bins belong here.
        """
        lengths = np.asarray(lengths, dtype=np.float64)
        n = float(lengths.sum())
        if n == 0:
            return 0.0
        t_compute = n * self.cycles_per_element / (
            self.n_cores * self.clock_hz
        )
        bytes_moved = n * (CSR_ELEMENT_BYTES + VALUE_BYTES * (1.0 - 0.5 *
                                                              locality))
        t_mem = bytes_moved / self.mem_bandwidth_bytes
        # A single long row cannot use more than one core's compute.
        longest = float(lengths.max()) * self.cycles_per_element / self.clock_hz
        return max(t_compute, t_mem, longest) + self.task_overhead_s


@dataclass(frozen=True)
class HeteroResult:
    """Outcome of a heterogeneous execution."""

    u: np.ndarray
    #: Makespan: both device queues run concurrently.
    seconds: float
    gpu_seconds: float
    cpu_seconds: float
    #: ``bin_id -> "gpu" | "cpu"``.
    assignment: Dict[int, str]

    @property
    def gpu_bins(self) -> int:
        """Bins placed on the throughput-oriented device."""
        return sum(1 for d in self.assignment.values() if d == "gpu")

    @property
    def cpu_bins(self) -> int:
        """Bins placed on the latency-oriented device."""
        return sum(1 for d in self.assignment.values() if d == "cpu")


class HeterogeneousScheduler:
    """Splits a plan's bins between the simulated GPU and CPU."""

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        cpu: Optional[CPUModelSpec] = None,
    ):
        self.device = device if device is not None else SimulatedDevice()
        self.cpu = cpu if cpu is not None else CPUModelSpec()

    # ------------------------------------------------------------------
    def assign(
        self, matrix: CSRMatrix, plan: ExecutionPlan
    ) -> Tuple[Dict[int, str], Dict[int, float], Dict[int, float]]:
        """Per-bin device choice plus both devices' per-bin times.

        Greedy faster-device assignment followed by a rebalancing pass:
        while moving the makespan-device's cheapest-to-move bin to the
        other device shortens the makespan, move it (classic 2-machine
        local search).
        """
        lengths = matrix.row_lengths()
        g = effective_gather_locality(matrix, self.device.spec)
        t_gpu: Dict[int, float] = {}
        t_cpu: Dict[int, float] = {}
        for b, rows in plan.binning.non_empty():
            kernel = get_kernel(plan.bin_kernels[b])
            t_gpu[b] = self.device.time_dispatch(kernel, lengths[rows], g)
            t_cpu[b] = self.cpu.bin_seconds(lengths[rows], g)
        assignment = {
            b: ("gpu" if t_gpu[b] <= t_cpu[b] else "cpu") for b in t_gpu
        }

        def loads(asg):
            gl = sum(t_gpu[b] for b, d in asg.items() if d == "gpu")
            cl = sum(t_cpu[b] for b, d in asg.items() if d == "cpu")
            return gl, cl

        improved = True
        while improved:
            improved = False
            gl, cl = loads(assignment)
            src, t_src, t_dst = (
                ("gpu", t_gpu, t_cpu) if gl >= cl else ("cpu", t_cpu, t_gpu)
            )
            makespan = max(gl, cl)
            candidates = [b for b, d in assignment.items() if d == src]
            for b in sorted(candidates, key=lambda b: t_dst[b]):
                trial = dict(assignment)
                trial[b] = "cpu" if src == "gpu" else "gpu"
                tgl, tcl = loads(trial)
                if max(tgl, tcl) < makespan - 1e-15:
                    assignment = trial
                    improved = True
                    break
        return assignment, t_gpu, t_cpu

    # ------------------------------------------------------------------
    def run(
        self, matrix: CSRMatrix, v: np.ndarray, plan: ExecutionPlan
    ) -> HeteroResult:
        """Execute the plan with bins split across both devices."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (matrix.ncols,):
            raise DeviceError(
                f"vector has shape {v.shape}, expected ({matrix.ncols},)"
            )
        assignment, t_gpu, t_cpu = self.assign(matrix, plan)
        u = np.zeros(matrix.nrows)
        gpu_load = cpu_load = 0.0
        for b, rows in plan.binning.non_empty():
            if assignment[b] == "gpu":
                kernel = get_kernel(plan.bin_kernels[b])
                u[rows] = kernel.compute(matrix, v, rows)
                gpu_load += t_gpu[b]
            else:
                # The CPU side's arithmetic: vectorised row dots.
                u[rows] = Kernel._fast_row_dots(matrix, v, rows)
                cpu_load += t_cpu[b]
        overhead = plan.scheme.overhead_seconds(matrix, self.device.spec)
        return HeteroResult(
            u=u,
            seconds=float(max(gpu_load, cpu_load) + overhead),
            gpu_seconds=float(gpu_load),
            cpu_seconds=float(cpu_load),
            assignment=assignment,
        )
