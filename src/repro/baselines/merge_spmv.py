"""Merge-based SpMV (Merrill & Garland), the paper's future-work kernel.

The merge-path formulation treats SpMV as merging the row-pointer array
with the non-zero index sequence: splitting the *merged* sequence into
equal chunks gives every worker exactly the same amount of work
(``rows + nnz`` items) regardless of row-length skew -- perfect load
balance by construction, at the price of cross-chunk row fix-ups.

``merge_path_partition`` implements the 2-D diagonal binary search; the
``compute`` path really processes chunks independently (carry-out /
carry-in fix-up included) so the algorithm's correctness is tested, not
just its cost.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.executor import SimulatedDevice, SpMVResult
from repro.device.memory import (
    CSR_ELEMENT_BYTES,
    VALUE_BYTES,
    effective_gather_locality,
    gather_lines,
    stream_lines,
)
from repro.formats.csr import CSRMatrix

__all__ = ["MergeSpMV", "merge_path_partition"]


def merge_path_partition(
    rowptr: np.ndarray, nnz: int, n_chunks: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split the merge of ``rowptr[1:]`` and ``arange(nnz)`` into chunks.

    Returns ``(row_starts, nnz_starts)``, each of length ``n_chunks+1``:
    chunk ``c`` consumes rows ``[row_starts[c], row_starts[c+1])`` and
    non-zeros ``[nnz_starts[c], nnz_starts[c+1])``, with every chunk
    handling ~``(nrows + nnz) / n_chunks`` merge items.

    The diagonal search: on diagonal ``d`` (0-based merge position), find
    the largest ``i`` (rows consumed) such that ``rowptr[i+1] <= d - i``
    ... solved vectorised with ``searchsorted`` on ``rowptr[1:] + arange``.
    """
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be > 0, got {n_chunks}")
    m = len(rowptr) - 1
    total = m + nnz
    # Integer diagonals keep the merge invariant rows + nnz == diagonal
    # exact (independent float casts would break it).
    diagonals = np.linspace(0, total, n_chunks + 1).round().astype(np.int64)
    # key[i] = rowptr[i+1] + i  is strictly increasing; rows consumed at
    # diagonal d is the count of i with key[i] < d.
    key = rowptr[1:] + np.arange(m)
    row_starts = np.searchsorted(key, diagonals, side="left").astype(np.int64)
    nnz_starts = np.clip(diagonals - row_starts, 0, nnz)
    row_starts = np.clip(row_starts, 0, m)
    row_starts[0], nnz_starts[0] = 0, 0
    row_starts[-1], nnz_starts[-1] = m, nnz
    return row_starts, nnz_starts


class MergeSpMV:
    """Merge-path balanced SpMV on the simulated device."""

    name = "merge-based"

    def __init__(
        self,
        *,
        items_per_chunk: int = 256,
        device: Optional[SimulatedDevice] = None,
    ):
        if items_per_chunk <= 0:
            raise ValueError(
                f"items_per_chunk must be > 0, got {items_per_chunk}"
            )
        self.items_per_chunk = int(items_per_chunk)
        self.device = device if device is not None else SimulatedDevice()

    def _n_chunks(self, matrix: CSRMatrix) -> int:
        total = matrix.nrows + matrix.nnz
        return max(1, -(-total // self.items_per_chunk))

    # ------------------------------------------------------------------
    def compute(self, matrix: CSRMatrix, v: np.ndarray) -> np.ndarray:
        """The real merge-path algorithm: independent chunks + fix-up."""
        v = np.asarray(v, dtype=np.float64)
        m = matrix.nrows
        u = np.zeros(m)
        if m == 0:
            return u
        n_chunks = self._n_chunks(matrix)
        row_starts, nnz_starts = merge_path_partition(
            matrix.rowptr, matrix.nnz, n_chunks
        )
        products = matrix.val * v[matrix.colidx] if matrix.nnz else np.zeros(0)
        carry = np.zeros(m)  # cross-chunk partial sums (the "fix-up")
        for c in range(n_chunks):
            r0, r1 = int(row_starts[c]), int(row_starts[c + 1])
            e0, e1 = int(nnz_starts[c]), int(nnz_starts[c + 1])
            if e1 > e0:
                seg = products[e0:e1]
                # Row boundaries inside this chunk's nnz range.
                inner_ptr = np.clip(matrix.rowptr[r0 : r1 + 1], e0, e1) - e0
                # Elements before the first complete boundary belong to a
                # row begun by an earlier chunk -> carry (atomic in the
                # GPU version).
                first = int(inner_ptr[0])
                if first > 0 and r0 > 0:
                    carry[r0 - 1] += seg[:first].sum()
                for i in range(r1 - r0):
                    lo, hi = int(inner_ptr[i]), int(inner_ptr[i + 1])
                    u[r0 + i] += seg[lo:hi].sum()
                # Tail elements past the last complete row also spill.
                last = int(inner_ptr[-1])
                if last < len(seg) and r1 < m:
                    carry[r1] += seg[last:].sum()
            # Rows fully contained with zero nnz in this chunk already
            # hold 0, which is correct.
        return u + carry

    # ------------------------------------------------------------------
    def _stats(self, matrix: CSRMatrix, locality: float) -> DispatchStats:
        spec = self.device.spec
        n_chunks = self._n_chunks(matrix)
        total_items = matrix.nrows + matrix.nnz
        # Perfect balance: every lane processes items_per_chunk items.
        per_item_instr = 5.0
        # One wavefront processes 64 chunks "in parallel"; its length is
        # the (identical) chunk size -- the whole point of merge-path.
        compute = total_items * per_item_instr / spec.wavefront_size
        longest = self.items_per_chunk * per_item_instr
        mem = float(
            stream_lines(matrix.nnz * CSR_ELEMENT_BYTES, spec)
            + gather_lines(matrix.nnz, locality, spec)
            + stream_lines(matrix.nrows * 3 * VALUE_BYTES, spec)
            + n_chunks  # diagonal-search reads + carry fix-ups
        )
        n_waves = max(1.0, n_chunks / spec.wavefront_size)
        return DispatchStats(
            compute_instructions=float(compute + n_waves * 8.0),
            longest_wave_instructions=float(longest),
            longest_dependent_iterations=float(self.items_per_chunk),
            memory_lines=mem,
            n_waves=float(n_waves),
            n_workgroups=float(
                max(1, -(-n_chunks // spec.workgroup_size))
            ),
        )

    def time(
        self, matrix: CSRMatrix, *, locality: Optional[float] = None
    ) -> float:
        """Simulated seconds: partition search + single balanced launch."""
        spec = self.device.spec
        g = (effective_gather_locality(matrix, spec) if locality is None
             else float(locality))
        t = dispatch_seconds(self._stats(matrix, g), spec)
        return float(t + spec.seconds(spec.kernel_launch_cycles))

    def run(self, matrix: CSRMatrix, v: np.ndarray) -> SpMVResult:
        """Numerical result (real merge-path execution) + accounted time."""
        u = self.compute(matrix, v)
        seconds = self.time(matrix)
        return SpMVResult(
            y=u,
            seconds=seconds,
            dispatch_seconds=(seconds,),
            launch_seconds=self.device.spec.seconds(
                self.device.spec.kernel_launch_cycles
            ),
        )
