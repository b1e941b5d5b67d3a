"""Kernel-Vector: one full work-group per row (the paper's Algorithm 5).

All 256 threads of a work-group cooperate on a single row: each round
stages ``factor * 256`` products into local memory and tree-reduces
across the whole group (crossing wavefront boundaries, hence real
barriers).  The right tool for bins of very long rows; on short rows
almost every lane idles and the per-row work-group launch dominates.
"""

from __future__ import annotations

import numpy as np

from repro.device.memory import (
    CSR_ELEMENT_BYTES,
    VALUE_BYTES,
    gather_lines,
    stream_lines,
)
from repro.device.spec import DeviceSpec
from repro.formats.csr import CSRMatrix
from repro.kernels.base import (
    ROW_OVERHEAD_INSTR,
    WAVE_OVERHEAD_INSTR,
    BinBatch,
    Kernel,
    row_products,
)
from repro.kernels.subvector import (
    BASE_INSTR_PER_ROUND,
    FACTOR,
    INSTR_PER_CROSS_WAVE_BARRIER,
    INSTR_PER_REDUCE_STEP,
)
from repro.utils.primitives import segmented_reduce_tree

__all__ = ["VectorKernel"]


class VectorKernel(Kernel):
    """Whole 256-thread work-group per row (Algorithm 5)."""

    name = "vector"

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
        group = 256
        chunk = FACTOR * group
        for i in range(len(rows)):
            start, end = int(offsets[i]), int(offsets[i + 1])
            acc = 0.0
            for round_start in range(start, end, chunk):
                lanes = np.zeros(group)
                for t in range(group):
                    lane_acc = 0.0
                    for k in range(FACTOR):
                        j = round_start + t + k * group
                        if j < end:
                            lane_acc += products[j]
                    lanes[t] = lane_acc
                acc += float(segmented_reduce_tree(lanes, group)[0])
            out[i] = acc
        return out

    def _price(
        self,
        lengths: np.ndarray,
        bins: BinBatch,
        locality: float,
        spec: DeviceSpec,
    ) -> dict:
        group = spec.workgroup_size
        waves_per_row = spec.waves_per_workgroup
        chunk = FACTOR * group
        rounds = np.maximum(lengths, 1)
        rounds /= chunk
        np.ceil(rounds, out=rounds)
        n_rows = bins.n_rows

        # The reduction tree spans wavefront boundaries while the stride
        # exceeds one wavefront (log2(group/wavefront) steps) plus the
        # staging barriers -- each a real cross-wave synchronisation.
        cross_wave_steps = np.log2(group / spec.wavefront_size) + 2.0
        instr_per_round = (
            BASE_INSTR_PER_ROUND
            + INSTR_PER_REDUCE_STEP * np.log2(group)
            + cross_wave_steps * INSTR_PER_CROSS_WAVE_BARRIER
        )
        # Whole instructions per round unless the work-group size is not
        # a power of two; only then does the summation order matter.
        round_sums = (bins.sums if float(instr_per_round).is_integer()
                      else bins.ordered_sums)

        compute = (
            round_sums(rounds * instr_per_round) * waves_per_row
            + n_rows * waves_per_row * WAVE_OVERHEAD_INSTR
            + n_rows * ROW_OVERHEAD_INSTR
        )
        max_rounds = bins.maxima(rounds)
        longest = max_rounds * instr_per_round + WAVE_OVERHEAD_INSTR

        matrix_lines = bins.sums(
            stream_lines(lengths * CSR_ELEMENT_BYTES, spec)
            + rounds * waves_per_row
        )
        vec_lines = bins.ordered_sums(gather_lines(lengths, locality, spec))
        aux_lines = stream_lines(n_rows * (3 * VALUE_BYTES), spec)

        lds_per_wg = group * FACTOR * VALUE_BYTES
        return dict(
            compute_instructions=compute,
            longest_wave_instructions=longest,
            longest_dependent_iterations=max_rounds,
            memory_lines=matrix_lines + vec_lines + aux_lines,
            n_waves=np.float64(n_rows * waves_per_row),
            n_workgroups=np.float64(n_rows),
            lds_bytes_per_wg=lds_per_wg,
        )
