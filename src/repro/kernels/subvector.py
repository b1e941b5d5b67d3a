"""Kernel-SubvectorX: X threads per row (the paper's Algorithm 4).

Every group of ``X`` threads (a *subvector*) owns one row.  Each round,
each thread stages ``factor`` (=4) strided products into local memory,
the subvector performs a segmented parallel reduction of width ``X``,
and lane 0 accumulates the partial result; rounds repeat until the row
is consumed.  Loads by the ``X`` consecutive lanes hit consecutive
elements, so streams coalesce; divergence is limited to the difference
in *round counts* between the rows sharing a wavefront (not raw row
lengths as in Kernel-Serial).
"""

from __future__ import annotations

import numpy as np

from repro.device.memory import (
    CSR_ELEMENT_BYTES,
    VALUE_BYTES,
    gather_lines,
    stream_lines,
    strided_waste_factor,
)
from repro.device.spec import DeviceSpec
from repro.errors import KernelError
from repro.formats.csr import CSRMatrix
from repro.kernels.base import (
    ROW_OVERHEAD_INSTR,
    WAVE_OVERHEAD_INSTR,
    BinBatch,
    Kernel,
    row_products,
)
from repro.utils.primitives import segmented_reduce_tree

__all__ = ["SubvectorKernel", "FACTOR"]

#: LDS staging factor from Algorithm 4 (``factor = 4``).
FACTOR = 4
#: Instructions per round, excluding the reduction tree: ``factor``
#: guarded loads + ``factor`` LDS stores + loop/address bookkeeping.
BASE_INSTR_PER_ROUND = 2.0 * FACTOR + 4.0
#: Instructions per reduction-tree step (LDS read + add + LDS write).
INSTR_PER_REDUCE_STEP = 2.0
#: Instructions charged per intra-wavefront barrier (nearly free on GCN:
#: lanes of one wavefront run in lock-step).
INSTR_PER_BARRIER = 2.0
#: Instruction-equivalents charged per *cross-wavefront* barrier (real
#: synchronisation through the LDS/hardware barrier, needed when a row's
#: threads span several wavefronts: X > 64 and Kernel-Vector).
INSTR_PER_CROSS_WAVE_BARRIER = 12.0


class SubvectorKernel(Kernel):
    """``X`` threads per row with LDS staging (Algorithm 4)."""

    def __init__(self, x: int):
        if x < 2 or (x & (x - 1)) != 0:
            raise KernelError(f"subvector width must be a power of two >= 2, got {x}")
        self.x = int(x)
        self.name = f"subvector{self.x}"

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def compute(
        self,
        matrix: CSRMatrix,
        rhs: np.ndarray,
        rows: np.ndarray,
        *,
        emulate: bool = False,
    ) -> np.ndarray:
        if not emulate:
            return self._fast_row_dots(matrix, rhs, rows)
        products, offsets = row_products(matrix, rhs, rows)
        out = np.zeros(len(rows))
        x, chunk = self.x, FACTOR * self.x
        for i in range(len(rows)):
            start, end = int(offsets[i]), int(offsets[i + 1])
            acc = 0.0
            for round_start in range(start, end, chunk):
                # Each lane t stages its `factor` strided elements and
                # locally sums them (the per-lane accumulation the staging
                # loop performs), then the subvector tree-reduces.
                lanes = np.zeros(x)
                for t in range(x):
                    lane_acc = 0.0
                    for k in range(FACTOR):
                        j = round_start + t + k * x
                        if j < end:
                            lane_acc += products[j]
                    lanes[t] = lane_acc
                acc += float(segmented_reduce_tree(lanes, x)[0])
            out[i] = acc
        return out

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    def _price(
        self,
        lengths: np.ndarray,
        bins: BinBatch,
        locality: float,
        spec: DeviceSpec,
    ) -> dict:
        x = self.x
        chunk = FACTOR * x
        rounds = np.maximum(lengths, 1)  # >=1 round per row
        rounds /= chunk
        np.ceil(rounds, out=rounds)
        n_rows = bins.n_rows
        total_elems = bins.sums(lengths)

        barrier = (
            INSTR_PER_BARRIER
            if x <= spec.wavefront_size
            else INSTR_PER_CROSS_WAVE_BARRIER
        )
        # The staging loop executes ceil(len/X) guarded iterations per
        # round, up to FACTOR; short rows exit early (uniformly across
        # the subgroup), so partial rounds cost proportionally less.
        mean_len = total_elems / n_rows
        staging_iters = np.minimum(np.maximum(np.ceil(mean_len / x), 1.0),
                                   FACTOR)
        instr_per_round = (
            2.0 * staging_iters
            + 4.0
            + INSTR_PER_REDUCE_STEP * np.log2(x)
            + 2.0 * barrier
        )

        w = spec.wavefront_size
        if x <= w:
            # 64/X rows share a wavefront; divergence over their rounds.
            windows, waves = bins.windows(w // x)
            wave_round_sums = waves.sums(windows.maxima(rounds))
            n_waves = waves.n_rows
            waves_per_row = 1.0
        else:
            # One row spans X/64 wavefronts, all executing every round.
            waves_per_row = x / w
            wave_round_sums = bins.sums(rounds)  # each of its waves runs these
            n_waves = n_rows * waves_per_row

        n_workgroups = -(-(n_rows * x) // spec.workgroup_size)
        # Rounds and instructions per round are whole numbers, so the
        # per-bin round sum times the bin's rate is exact.
        compute = (
            wave_round_sums * instr_per_round * waves_per_row
            # Prologue/launch setup is shared by a work-group's waves.
            + n_workgroups * WAVE_OVERHEAD_INSTR
            + n_waves * 2.0
            + n_rows * ROW_OVERHEAD_INSTR
        )
        max_rounds = bins.maxima(rounds)
        longest = max_rounds * instr_per_round + WAVE_OVERHEAD_INSTR

        # Streams coalesce within each X-lane subgroup.  Rows consumed in
        # a *single* staging round are read as one tight burst of
        # back-to-back instructions, so their cache lines are reused
        # before eviction and adjacent rows chain into a contiguous
        # stream (waste 1).  Multi-round rows re-expose the strided
        # pattern between rounds (see strided_waste_factor).  The blend
        # is weighted by *bytes* (waste is a traffic multiplier), so a
        # bin whose few long rows carry most of the non-zeros is charged
        # correctly -- the heterogeneity penalty binning exists to avoid.
        # Rows of more than one round are the rows longer than a chunk.
        # A bin without them has frac_multi 0, so its waste is exactly 1.
        multi_elems, n_multi = bins.selected_sums(
            np.flatnonzero(lengths > chunk), lengths)
        frac_multi = multi_elems / np.maximum(total_elems, 1.0)
        mean_multi = multi_elems / np.maximum(n_multi, 1)
        waste = (1.0 - frac_multi) + frac_multi * strided_waste_factor(
            x, mean_multi, spec)
        matrix_lines = (
            stream_lines(total_elems * CSR_ELEMENT_BYTES, spec) * waste
            + n_workgroups  # boundary line per work-group's span
        )
        vec_lines = bins.ordered_sums(gather_lines(lengths, locality, spec))
        aux_lines = stream_lines(n_rows * (3 * VALUE_BYTES), spec)

        lds_per_wg = spec.workgroup_size * FACTOR * VALUE_BYTES
        return dict(
            compute_instructions=compute,
            longest_wave_instructions=longest,
            longest_dependent_iterations=max_rounds,
            memory_lines=matrix_lines + vec_lines + aux_lines,
            n_waves=np.float64(n_waves),
            n_workgroups=np.float64(n_workgroups),
            lds_bytes_per_wg=lds_per_wg,
        )
