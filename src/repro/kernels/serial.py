"""Kernel-Serial: one thread per row (the paper's Algorithm 3).

Each of the 256 threads in a work-group walks one row sequentially and
accumulates into a register.  Powerful for bins of very short rows;
suffers on long rows from (a) SIMD divergence -- a wavefront runs until
its *longest* row finishes -- and (b) uncoalesced streams -- lane ``i``'s
loads are spaced by row ``i``'s length, so wide rows turn every 12-byte
element into its own cache-line transaction once the wavefront's reuse
window overflows the L1.
"""

from __future__ import annotations

import numpy as np

from repro.device.memory import (
    CSR_ELEMENT_BYTES,
    VALUE_BYTES,
    gather_lines,
    serial_waste_factor,
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

__all__ = ["SerialKernel"]

#: Wavefront instructions per inner-loop iteration: address arithmetic,
#: colidx load, val load, v gather, FMA, loop bookkeeping.
INSTR_PER_ITER = 6.0


class SerialKernel(Kernel):
    """One thread per row; sequential accumulation (Algorithm 3)."""

    name = "serial"

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
        # Lane-faithful: strictly left-to-right accumulation per row,
        # matching the OpenCL kernel's scalar loop.
        products, offsets = row_products(matrix, rhs, rows)
        out = np.zeros(len(rows))
        for i in range(len(rows)):
            acc = 0.0
            for j in range(int(offsets[i]), int(offsets[i + 1])):
                acc += products[j]
            out[i] = acc
        return out

    def _price(
        self,
        lengths: np.ndarray,
        bins: BinBatch,
        locality: float,
        spec: DeviceSpec,
    ) -> dict:
        w = spec.wavefront_size
        # One wavefront per window of w rows; a bin's last one is partial.
        windows, waves = bins.windows(w)
        iters = windows.maxima(lengths)  # divergence: wave runs to max row
        elems = windows.sums(lengths)
        n_waves = waves.n_rows
        n_rows = bins.n_rows

        compute = (
            waves.sums(iters * INSTR_PER_ITER)
            + n_waves * WAVE_OVERHEAD_INSTR
            + n_rows * ROW_OVERHEAD_INSTR
        )
        max_iters = waves.maxima(iters)
        longest = max_iters * INSTR_PER_ITER + WAVE_OVERHEAD_INSTR

        # Strided streams: per-window waste grows with the mean row length.
        mean_len = elems / w
        matrix_lines = waves.ordered_sums(
            stream_lines(elems * CSR_ELEMENT_BYTES, spec)
            * serial_waste_factor(mean_len, spec)
        )
        vec_lines = waves.ordered_sums(gather_lines(elems, locality, spec))
        aux_lines = stream_lines(
            n_rows * (3 * VALUE_BYTES), spec
        )  # rowptr pair + u store + bin index

        return dict(
            compute_instructions=compute,
            longest_wave_instructions=longest,
            longest_dependent_iterations=max_iters,
            memory_lines=matrix_lines + vec_lines + aux_lines,
            n_waves=np.float64(n_waves),
            n_workgroups=np.float64(-(-n_rows // spec.workgroup_size)),
            lds_bytes_per_wg=0,
        )
