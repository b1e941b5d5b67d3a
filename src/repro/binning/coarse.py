"""The paper's coarse-grained binning scheme (Algorithm 2).

Every ``U`` neighbouring rows form one *virtual row* whose workload is
the total non-zero count of its member rows.  Virtual rows are placed
into up to ``max_bins`` bins by ``binId = workload // U``; workloads
exceeding the last bin's capacity overflow into the last bin.  Only the
first row index of each virtual row needs storing (members are
adjacent), which is what makes the scheme cheap in both space and time
relative to fine-grained binning.
"""

from __future__ import annotations

import numpy as np

from repro.binning.base import BinningResult, BinningScheme, binning_pass_seconds
from repro.device.spec import DeviceSpec
from repro.errors import BinningError
from repro.formats.csr import CSRMatrix
from repro.observe.registry import get_registry

__all__ = ["CoarseBinning", "DEFAULT_GRANULARITIES", "MAX_BINS"]

#: The paper's candidate granularities: "U is preset to be 10, 20, 50,
#: 100, 200, 500, ..., 10^6" (§III-B; the 1-2-5 series up to 10^3, then
#: decades).  200 and 500 were missing from early versions of this
#: tuple, silently narrowing the stage-1 tuning space.
DEFAULT_GRANULARITIES = (
    10, 20, 50, 100, 200, 500, 1000, 10_000, 100_000, 1_000_000
)

#: "there are up to 100 bins" (§III-B).
MAX_BINS = 100


class CoarseBinning(BinningScheme):
    """Virtual-row binning with granularity ``U`` (the paper's scheme)."""

    def __init__(self, u: int, *, max_bins: int = MAX_BINS):
        if u <= 0:
            raise BinningError(f"granularity U must be > 0, got {u}")
        if max_bins <= 0:
            raise BinningError(f"max_bins must be > 0, got {max_bins}")
        self.u = int(u)
        self.max_bins = int(max_bins)
        self.name = f"coarse(U={self.u})"

    # ------------------------------------------------------------------
    def virtual_workloads(self, matrix: CSRMatrix) -> np.ndarray:
        """Step 1: workload (total nnz) of each virtual row."""
        m, u = matrix.nrows, self.u
        n_virtual = -(-m // u) if m else 0
        starts = np.arange(n_virtual, dtype=np.int64) * u
        ends = np.minimum(starts + u, m)
        return matrix.rowptr[ends] - matrix.rowptr[starts]

    def bin_ids(self, matrix: CSRMatrix) -> np.ndarray:
        """Step 2: bin index of each virtual row (overflow -> last bin).

        Side-effect free, so the overhead model can re-derive the ids;
        :meth:`bin_rows` feeds the overflow counter, once per binning.
        """
        return self._clamp(self.virtual_workloads(matrix))

    def _clamp(self, workloads: np.ndarray) -> np.ndarray:
        return np.minimum(workloads // self.u, self.max_bins - 1)

    def _count_overflow(self, workloads: np.ndarray) -> None:
        """Count the virtual rows clamped into the last bin."""
        n_overflow = int(np.count_nonzero(
            workloads >= self.max_bins * self.u
        ))
        if n_overflow:
            registry = get_registry()
            registry.counter(
                "binning_overflow_virtual_rows_total",
                {"scheme": self.name},
                help_text="Virtual rows clamped into the overflow "
                          "(last) coarse bin.",
            ).inc(n_overflow)
            registry.emit(
                "overflow_bin_hit",
                scheme=self.name,
                n_virtual_rows=n_overflow,
                max_workload=int(workloads.max()),
            )

    def bin_rows(self, matrix: CSRMatrix) -> BinningResult:
        m, u = matrix.nrows, self.u
        workloads = self.virtual_workloads(matrix)
        self._count_overflow(workloads)
        bin_ids = self._clamp(workloads)
        n_virtual = len(bin_ids)
        bins: list[np.ndarray] = []
        if n_virtual == 0:
            bins = [np.zeros(0, dtype=np.int64) for _ in range(self.max_bins)]
        else:
            # Stable-sort virtual rows by bin so within-bin launch order
            # preserves adjacency (ascending first-row index).
            order = np.argsort(bin_ids, kind="stable")
            # Expand each virtual row into its actual member rows.
            starts = order.astype(np.int64) * u
            lens = np.minimum(starts + u, m) - starts
            total = int(lens.sum())
            offsets = np.zeros(len(order) + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            within = np.arange(total, dtype=np.int64) - np.repeat(
                offsets[:-1], lens
            )
            expanded = np.repeat(starts, lens) + within
            # Slice the expansion per bin.
            row_counts = np.zeros(self.max_bins, dtype=np.int64)
            # rows per bin = sum of member lens of its virtual rows
            np.add.at(row_counts, bin_ids, np.minimum(
                np.arange(n_virtual, dtype=np.int64) * u + u, m
            ) - np.arange(n_virtual, dtype=np.int64) * u)
            bin_offsets = np.zeros(self.max_bins + 1, dtype=np.int64)
            np.cumsum(row_counts, out=bin_offsets[1:])
            bins = [
                expanded[bin_offsets[b] : bin_offsets[b + 1]]
                for b in range(self.max_bins)
            ]
        labels = tuple(
            f"wl[{b * u},{(b + 1) * u})" if b < self.max_bins - 1
            else f"wl[{b * u},inf)"
            for b in range(self.max_bins)
        )
        return BinningResult(self.name, tuple(bins), labels)

    # ------------------------------------------------------------------
    def overhead_seconds(self, matrix: CSRMatrix, spec: DeviceSpec) -> float:
        """Device-side cost of Algorithm 2 at this granularity.

        One thread per *virtual* row: fewer virtual rows (larger ``U``)
        mean proportionally less work -- and less same-bin atomic
        contention, which dominates for tiny ``U`` (Figure 8).
        """
        n_virtual = -(-matrix.nrows // self.u) if matrix.nrows else 0
        if n_virtual == 0:
            return 0.0
        counts = np.bincount(self.bin_ids(matrix), minlength=1)
        return binning_pass_seconds(n_virtual, int(counts.max()), spec)
