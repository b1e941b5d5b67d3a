"""Row-distribution statistics for sparse matrices.

:class:`RowStats` summarises the per-row non-zero counts of one matrix:
the paper's Table I fields plus the median, 90th percentile, empty-row
count and Gini coefficient.  The extended feature set reads it.  The
planner's Table I extractor (:func:`repro.features.extract.extract_features`)
builds none: it runs the same reductions for the Table I fields alone,
so the two agree bit for bit without the sorts the extras need.
:func:`row_length_histogram` buckets row lengths for Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.csr import CSRMatrix

__all__ = ["RowStats", "FIGURE5_BUCKETS"]

#: Histogram bucket upper bounds used by the paper's Figure 5 (nnz/row).
FIGURE5_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 100, 256, 1024, np.inf)


@dataclass(frozen=True)
class RowStats:
    """Summary statistics of a matrix's per-row non-zero counts.

    Attributes mirror the paper's Table I plus a few extras; the
    extended feature set reads the Gini coefficient and ``cv_nnz``.
    """

    nrows: int
    ncols: int
    nnz: int
    avg_nnz: float
    var_nnz: float
    min_nnz: int
    max_nnz: int
    median_nnz: float
    p90_nnz: float
    empty_rows: int
    gini: float

    @classmethod
    def from_matrix(cls, matrix: CSRMatrix) -> "RowStats":
        """Compute statistics for ``matrix``."""
        return cls.from_row_lengths(
            matrix.row_lengths(), matrix.nrows, matrix.ncols
        )

    @classmethod
    def from_row_lengths(
        cls, lengths: np.ndarray, nrows: int, ncols: int
    ) -> "RowStats":
        """Compute statistics from a pre-computed row-length array."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) != nrows:
            raise ValueError(
                f"lengths has {len(lengths)} entries but nrows={nrows}"
            )
        if nrows == 0:
            return cls(0, ncols, 0, 0.0, 0.0, 0, 0, 0.0, 0.0, 0, 0.0)
        nnz = int(lengths.sum())
        return cls(
            nrows=nrows,
            ncols=ncols,
            nnz=nnz,
            avg_nnz=float(lengths.mean()),
            var_nnz=float(lengths.var()),
            min_nnz=int(lengths.min()),
            max_nnz=int(lengths.max()),
            median_nnz=float(np.median(lengths)),
            p90_nnz=float(np.quantile(lengths, 0.9)),
            empty_rows=int(np.count_nonzero(lengths == 0)),
            gini=_gini(lengths),
        )

    @property
    def std_nnz(self) -> float:
        """Standard deviation of nnz per row."""
        return float(np.sqrt(self.var_nnz))

    @property
    def cv_nnz(self) -> float:
        """Coefficient of variation (std/avg); 0 for perfectly regular rows."""
        return 0.0 if self.avg_nnz == 0 else self.std_nnz / self.avg_nnz

    @property
    def density(self) -> float:
        """nnz / (nrows * ncols)."""
        cells = self.nrows * self.ncols
        return 0.0 if cells == 0 else self.nnz / cells


def _gini(lengths: np.ndarray) -> float:
    """Gini coefficient of the row-length distribution.

    0 means perfectly uniform workloads, values near 1 mean a few rows
    hold nearly all non-zeros -- a compact irregularity signal used in
    the extended feature set.
    """
    n = len(lengths)
    total = lengths.sum()
    if n == 0 or total == 0:
        return 0.0
    sorted_lengths = np.sort(lengths)
    cum = np.cumsum(sorted_lengths, dtype=np.float64)
    # Standard formula: G = (n + 1 - 2 * sum(cum) / cum[-1]) / n
    return float((n + 1 - 2.0 * cum.sum() / cum[-1]) / n)


def row_length_histogram(
    lengths: np.ndarray, buckets=FIGURE5_BUCKETS
) -> dict[str, int]:
    """Bucketised histogram of row lengths (Figure 5 reproduction).

    Buckets are labelled ``"<=k"`` by their inclusive upper bound, with
    the final open bucket labelled ``">last"``.
    """
    lengths = np.asarray(lengths)
    out: dict[str, int] = {}
    lower = -np.inf
    for b in buckets:
        if np.isinf(b):
            label = f">{int(buckets[buckets.index(b) - 1])}" if isinstance(
                buckets, tuple
            ) else ">last"
            count = int(np.count_nonzero(lengths > lower))
        else:
            label = f"<={int(b)}"
            count = int(np.count_nonzero((lengths > lower) & (lengths <= b)))
        out[label] = count
        lower = b
    return out
