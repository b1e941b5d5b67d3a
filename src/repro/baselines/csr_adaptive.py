"""CSR-Adaptive SpMV (Greathouse & Daga), reimplemented.

The paper's Figure 7 baseline.  The algorithm:

1. **Row blocking** (inter-bin load balance): adjacent rows are packed
   into blocks of at most ``block_nnz`` non-zeros; an oversized row
   becomes a singleton block (:mod:`repro.binning.adaptive_rows`).
2. **In-kernel path selection** (hard-coded, not learned): a block with
   several rows takes **CSR-Stream** -- the work-group streams the
   block's non-zeros into LDS with perfectly coalesced loads, then one
   thread per row reduces its row out of LDS; a singleton block takes
   **CSR-Vector** -- the whole work-group reduces the one long row
   (CSR-VectorL behaviour for rows above ``block_nnz`` is folded into
   the same rounds-based cost).
3. Everything runs as **one kernel launch** (the selection happens per
   work-group inside the kernel), so CSR-Adaptive pays the fixed launch
   cost exactly once -- a structural advantage over the framework's
   launch-per-bin, which the framework must beat through better kernel
   fit.

Strengths and weaknesses both emerge from the cost model: coalesced
streaming and single launch (good), but the CSR-Stream reduction runs
one thread per row so a block mixing short and long rows diverges, and
the block size is fixed rather than input-tuned -- exactly the gap the
paper's auto-tuner exploits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.binning.adaptive_rows import RowBlockBinning, row_blocks
from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.executor import SimulatedDevice, SpMVResult
from repro.device.memory import (
    CSR_ELEMENT_BYTES,
    VALUE_BYTES,
    effective_gather_locality,
    gather_lines,
    stream_lines,
)
from repro.device.spec import DeviceSpec
from repro.formats.csr import CSRMatrix
from repro.kernels.base import WAVE_OVERHEAD_INSTR
from repro.kernels.registry import get_kernel
from repro.utils.primitives import segmented_max

__all__ = ["CSRAdaptiveSpMV"]

#: Wavefront instructions per 256-element staging round: global load,
#: column-index load, product, LDS store, address/loop bookkeeping.  The
#: paper evaluates a SNACK port of CSR-Adaptive (not the hand-tuned
#: clSPARSE kernel), so the staging loop is charged at scalar-port rates.
_STREAM_INSTR_PER_ELEM_ROUND = 7.0
#: Instructions per LDS reduction iteration in the stream phase (LDS
#: load + FMA + loop; row boundaries are unaligned so bank conflicts
#: serialise part of the access).
_REDUCE_INSTR_PER_ITER = 3.0


class CSRAdaptiveSpMV:
    """The CSR-Adaptive algorithm on the simulated device."""

    def __init__(
        self,
        *,
        block_nnz: int = 1024,
        device: Optional[SimulatedDevice] = None,
        count_blocking_overhead: bool = False,
    ):
        self.block_nnz = int(block_nnz)
        self.binning = RowBlockBinning(block_nnz=self.block_nnz)
        self.device = device if device is not None else SimulatedDevice()
        #: clSPARSE builds the rowBlocks array once at csrmv meta-create
        #: (setup), so by default the per-SpMV time excludes it; set True
        #: to charge it per multiply like the framework's binning.
        self.count_blocking_overhead = bool(count_blocking_overhead)

    name = "csr-adaptive"

    # ------------------------------------------------------------------
    def _stats(
        self, matrix: CSRMatrix, locality: float, spec: DeviceSpec
    ) -> DispatchStats:
        """Aggregate DispatchStats of the single CSR-Adaptive launch."""
        bounds = row_blocks(matrix, self.block_nnz)
        lengths = matrix.row_lengths()
        rows_per_block = np.diff(bounds)
        nnz_per_block = (matrix.rowptr[bounds[1:]] -
                         matrix.rowptr[bounds[:-1]]).astype(np.float64)
        maxlen_per_block = segmented_max(lengths, bounds, empty=0).astype(
            np.float64
        )

        stream = rows_per_block > 1
        vector = ~stream

        stats = DispatchStats.empty()

        # --- CSR-Stream blocks (one work-group each) -------------------
        if np.any(stream):
            e = nnz_per_block[stream]
            r = rows_per_block[stream].astype(np.float64)
            maxlen = maxlen_per_block[stream]
            wg = spec.workgroup_size
            w = spec.wavefront_size
            stream_rounds = np.ceil(np.maximum(e, 1) / wg)
            # Phase 1: coalesced streaming into LDS, all 4 waves busy.
            phase1 = stream_rounds * _STREAM_INSTR_PER_ELEM_ROUND
            # Phase 2: one thread per row; each wave of rows runs to the
            # longest row it contains (approximated by the block max --
            # blocks are nnz-balanced, not length-balanced, which is the
            # scheme's divergence weakness).
            row_waves = np.ceil(r / w)
            phase2_total = row_waves * maxlen * _REDUCE_INSTR_PER_ITER
            waves_per_block = float(spec.waves_per_workgroup)
            compute = float(
                (phase1 * waves_per_block + phase2_total).sum()
                + stream.sum() * waves_per_block * WAVE_OVERHEAD_INSTR
            )
            longest = float(
                (phase1 + maxlen * _REDUCE_INSTR_PER_ITER).max()
                + WAVE_OVERHEAD_INSTR
            )
            mem = float(
                (stream_lines(e * CSR_ELEMENT_BYTES, spec)).sum()
                + gather_lines(e, locality, spec).sum()
                + stream_lines(r * 3 * VALUE_BYTES, spec).sum()
            )
            stats = stats.merge(
                DispatchStats(
                    compute_instructions=compute,
                    longest_wave_instructions=longest,
                    longest_dependent_iterations=float(stream_rounds.max()),
                    memory_lines=mem,
                    n_waves=float(stream.sum() * waves_per_block),
                    n_workgroups=float(stream.sum()),
                    lds_bytes_per_wg=self.block_nnz * VALUE_BYTES,
                )
            )

        # --- CSR-Vector blocks (singleton long rows) --------------------
        if np.any(vector):
            singleton_rows = bounds[:-1][vector]
            vec_stats = get_kernel("vector").cost(
                lengths[singleton_rows], locality, spec
            )
            stats = stats.merge(vec_stats)
        return stats

    # ------------------------------------------------------------------
    def time(
        self, matrix: CSRMatrix, *, locality: Optional[float] = None
    ) -> float:
        """Simulated seconds (blocking pass + single launch + kernel)."""
        spec = self.device.spec
        g = (effective_gather_locality(matrix, spec) if locality is None
             else float(locality))
        stats = self._stats(matrix, g, spec)
        t = dispatch_seconds(stats, spec)
        t += spec.seconds(spec.kernel_launch_cycles)  # ONE launch
        if self.count_blocking_overhead:
            t += self.binning.overhead_seconds(matrix, spec)
        return float(t)

    def run(self, matrix: CSRMatrix, v: np.ndarray) -> SpMVResult:
        """Numerical result + accounted time."""
        v = np.asarray(v, dtype=np.float64)
        u = matrix.matvec_reference(v)  # same arithmetic, per-row sums
        seconds = self.time(matrix)
        return SpMVResult(
            y=u,
            seconds=seconds,
            dispatch_seconds=(seconds,),
            launch_seconds=self.device.spec.seconds(
                self.device.spec.kernel_launch_cycles
            ),
        )
