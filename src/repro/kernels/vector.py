"""Kernel-Vector: one full work-group per row (the paper's Algorithm 5).

All 256 threads of a work-group cooperate on a single row: each round
stages ``factor * 256`` products into local memory and tree-reduces
across the whole group (crossing wavefront boundaries, hence real
barriers).  The right tool for bins of very long rows; on short rows
almost every lane idles and the per-row work-group launch dominates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.device.dispatch import DispatchStats
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
    Gather,
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
        gather: Optional[Gather] = None,
    ) -> np.ndarray:
        if not emulate:
            return self._fast_row_dots(matrix, rhs, rows, gather)
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

    def cost(
        self,
        row_lengths: np.ndarray,
        locality: float,
        spec: DeviceSpec,
    ) -> DispatchStats:
        lengths = np.asarray(row_lengths, dtype=np.float64)
        n_rows = len(lengths)
        if n_rows == 0:
            return DispatchStats.empty()
        group = spec.workgroup_size
        waves_per_row = spec.waves_per_workgroup
        chunk = FACTOR * group
        rounds = np.ceil(np.maximum(lengths, 1) / chunk)

        # The reduction tree spans wavefront boundaries while the stride
        # exceeds one wavefront (log2(group/wavefront) steps) plus the
        # staging barriers -- each a real cross-wave synchronisation.
        cross_wave_steps = np.log2(group / spec.wavefront_size) + 2.0
        instr_per_round = (
            BASE_INSTR_PER_ROUND
            + INSTR_PER_REDUCE_STEP * np.log2(group)
            + cross_wave_steps * INSTR_PER_CROSS_WAVE_BARRIER
        )

        compute = float(
            (rounds * instr_per_round).sum() * waves_per_row
            + n_rows * waves_per_row * WAVE_OVERHEAD_INSTR
            + n_rows * ROW_OVERHEAD_INSTR
        )
        longest = float(rounds.max() * instr_per_round + WAVE_OVERHEAD_INSTR)

        matrix_lines = float(
            (
                stream_lines(lengths * CSR_ELEMENT_BYTES, spec)
                + rounds * waves_per_row
            ).sum()
        )
        vec_lines = float(gather_lines(lengths, locality, spec).sum())
        aux_lines = float(stream_lines(n_rows * (3 * VALUE_BYTES), spec))

        lds_per_wg = group * FACTOR * VALUE_BYTES
        return DispatchStats(
            compute_instructions=compute,
            longest_wave_instructions=longest,
            longest_dependent_iterations=float(rounds.max()),
            memory_lines=matrix_lines + vec_lines + aux_lines,
            n_waves=float(n_rows * waves_per_row),
            n_workgroups=float(n_rows),
            lds_bytes_per_wg=lds_per_wg,
        )
