"""The paper's Table I feature parameters.

Two groups: *basic matrix information* (``M``, ``N``, ``NNZ``) and
*non-zero distribution information* (``Var_NNZ``, ``Avg_NNZ``,
``Min_NNZ``, ``Max_NNZ``).  The paper borrows the general parameters
from SMAT [10] and adds ``Min_NNZ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.formats.csr import CSRMatrix

__all__ = ["MatrixFeatures", "extract_features", "FEATURE_NAMES"]

#: Attribute order of the stage-1 classifier's input vector (Table I).
FEATURE_NAMES: Tuple[str, ...] = (
    "M",
    "N",
    "NNZ",
    "Var_NNZ",
    "Avg_NNZ",
    "Min_NNZ",
    "Max_NNZ",
)


@dataclass(frozen=True)
class MatrixFeatures:
    """The Table I parameter vector of one sparse matrix."""

    m: int
    n: int
    nnz: int
    var_nnz: float
    avg_nnz: float
    min_nnz: int
    max_nnz: int

    def to_vector(self) -> np.ndarray:
        """Feature vector in :data:`FEATURE_NAMES` order (float64)."""
        return np.array(
            [
                self.m,
                self.n,
                self.nnz,
                self.var_nnz,
                self.avg_nnz,
                self.min_nnz,
                self.max_nnz,
            ],
            dtype=np.float64,
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "MatrixFeatures":
        """Inverse of :meth:`to_vector`."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"expected vector of shape ({len(FEATURE_NAMES)},), got {vec.shape}"
            )
        return cls(
            m=int(vec[0]),
            n=int(vec[1]),
            nnz=int(vec[2]),
            var_nnz=float(vec[3]),
            avg_nnz=float(vec[4]),
            min_nnz=int(vec[5]),
            max_nnz=int(vec[6]),
        )


def extract_features(matrix: CSRMatrix) -> MatrixFeatures:
    """Compute the Table I parameters of ``matrix``.

    One pass over the row-pointer array; O(nrows).  The same NumPy
    reductions as :class:`~repro.matrices.stats.RowStats`, so the
    values are bit-identical to its Table I fields; nothing else (no
    median, quantile or Gini sort) is computed.
    """
    if matrix.nrows == 0:
        return MatrixFeatures(0, matrix.ncols, 0, 0.0, 0.0, 0, 0)
    lengths = matrix.row_lengths()
    return MatrixFeatures(
        m=matrix.nrows,
        n=matrix.ncols,
        nnz=matrix.nnz,
        var_nnz=float(lengths.var()),
        avg_nnz=float(lengths.mean()),
        min_nnz=int(lengths.min()),
        max_nnz=int(lengths.max()),
    )
