"""Kernel abstraction shared by the whole pool.

A :class:`Kernel` is a *strategy*: the same mathematical operation
(per-row dot products with the input vector) realised with a particular
thread organisation.  The auto-tuner treats kernels as opaque -- it only
ever calls :meth:`Kernel.compute` (for results) and :meth:`Kernel.cost`
(for predicted :class:`~repro.device.dispatch.DispatchStats`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.device.dispatch import DispatchStats
from repro.device.spec import DeviceSpec
from repro.errors import KernelError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.utils.primitives import exclusive_scan

__all__ = ["Kernel", "Gather", "row_products", "row_products_batch",
           "pad_reshape"]

#: Wavefront-instruction budget charged per row for prologue/epilogue
#: (index load from the bin array, rowptr reads, result store).
ROW_OVERHEAD_INSTR = 2.0
#: Per-wavefront fixed instructions (launch prologue).
WAVE_OVERHEAD_INSTR = 8.0


def _gather_index(
    matrix: CSRMatrix, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, offsets)`` for the selected rows, in order.

    ``src`` holds the CSR positions of every selected entry and
    ``offsets`` the row boundaries within it.  Entry ``j`` of the output
    sits at ``rowptr[r] + (j - offsets[i])`` for the ``i``-th selected
    row ``r``, so one ``repeat`` of the per-row shift builds the index.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = matrix.rowptr[rows]
    lengths = matrix.rowptr[rows + 1] - starts
    offsets = exclusive_scan(lengths)
    src = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
    return src, offsets


@dataclass(frozen=True, eq=False)
class Gather:
    """One launch's structure-only gather, built once when a plan binds.

    Index data only -- no values, no views of ``val`` or ``colidx``, no
    reference to the matrix -- so it serves every matrix with the
    structure it was built from.
    """

    #: CSR positions of the launch's entries, in launch order: a
    #: ``slice`` when the rows form one ascending run, else an index.
    src: Union[slice, np.ndarray]
    #: Start of each non-empty row within the gathered entries.
    starts: np.ndarray
    #: Local indices (into the launch's rows) of the non-empty rows.
    nonempty: np.ndarray

    @classmethod
    def of(cls, matrix: CSRMatrix, rows: np.ndarray) -> "Gather":
        """The gather for ``rows`` of ``matrix``'s structure."""
        rows = np.asarray(rows, dtype=np.int64)
        if (len(rows) and 0 <= rows[0] and rows[-1] < matrix.nrows
                and np.all(np.diff(rows) == 1)):
            lo, hi = int(rows[0]), int(rows[-1]) + 1
            offsets = matrix.rowptr[lo:hi + 1] - matrix.rowptr[lo]
            src = slice(int(matrix.rowptr[lo]), int(matrix.rowptr[hi]))
        else:
            src, offsets = _gather_index(matrix, rows)
        nonempty = np.flatnonzero(np.diff(offsets))
        return cls(src, offsets[nonempty], nonempty)


def row_products(
    matrix: CSRMatrix, v: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gathered per-element products for the selected rows.

    Returns ``(products, offsets)`` where ``products`` concatenates
    ``val[j] * v[colidx[j]]`` for each selected row in order and
    ``offsets`` is the CSR-style boundary array (length ``len(rows)+1``).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (matrix.ncols,):
        raise ShapeError(f"vector has shape {v.shape}, expected ({matrix.ncols},)")
    src, offsets = _gather_index(matrix, rows)
    return matrix.val[src] * v[matrix.colidx[src]], offsets


def row_products_batch(
    matrix: CSRMatrix, dense: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-RHS analogue of :func:`row_products`.

    ``dense`` is an ``(ncols, k)`` block of right-hand sides.  Returns
    ``(products, offsets)`` where ``products`` has shape ``(nnz, k)`` and
    row ``j`` holds ``val[j] * dense[colidx[j], :]``.  Column ``c`` of
    the result equals ``row_products(matrix, dense[:, c], rows)[0]``
    exactly, and ``segmented_sum_2d`` of it equals
    :meth:`Kernel.compute` on ``dense`` bit for bit.  The executor no
    longer calls it; it is the independent form tests derive from.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != matrix.ncols:
        raise ShapeError(
            f"operand has shape {dense.shape}, expected ({matrix.ncols}, k)"
        )
    src, offsets = _gather_index(matrix, rows)
    return matrix.val[src, None] * dense[matrix.colidx[src]], offsets


def pad_reshape(values: np.ndarray, width: int, fill=0) -> np.ndarray:
    """Pad a 1-D array to a multiple of ``width`` and reshape to 2-D.

    The shared windowing helper of the cost models: one output row per
    wavefront-sized window.
    """
    if width <= 0:
        raise KernelError(f"width must be > 0, got {width}")
    values = np.asarray(values)
    n = len(values)
    n_win = -(-n // width) if n else 0
    padded = np.full(n_win * width, fill, dtype=values.dtype)
    padded[:n] = values
    return padded.reshape(n_win, width)


class Kernel(ABC):
    """One SpMV thread-organisation strategy."""

    #: Unique registry name, e.g. ``"serial"`` or ``"subvector16"``.
    name: str = "abstract"

    @abstractmethod
    def compute(
        self,
        matrix: CSRMatrix,
        rhs: np.ndarray,
        rows: np.ndarray,
        *,
        emulate: bool = False,
        gather: Optional[Gather] = None,
    ) -> np.ndarray:
        """Dot products of the selected ``rows`` of ``matrix`` with ``rhs``.

        ``rhs`` is a vector or an ``(ncols, k)`` block; the result has
        one row per selected row and ``rhs``'s trailing shape.  The
        vectorised fast path gathers ``val`` and ``colidx`` once, at
        ``gather`` (the launch's bound :class:`Gather`; built here when
        omitted), then reduces each column with one ``reduceat`` -- so
        column ``c`` is exactly the SpMV of ``rhs[:, c]``.  With
        ``emulate=True`` the kernel reproduces the OpenCL
        implementation's lane-level staging and reduction order for a
        single vector (slow; for validation), equal to the fast path up
        to floating-point association.
        """

    @abstractmethod
    def cost(
        self,
        row_lengths: np.ndarray,
        locality: float,
        spec: DeviceSpec,
    ) -> DispatchStats:
        """Predicted execution statistics for a bin with these row lengths.

        ``locality`` is the matrix's measured gather locality (see
        :func:`repro.device.memory.gather_locality`); ``row_lengths``
        holds the *actual* per-row non-zero counts of every row assigned
        to the bin, in launch order.
        """

    # Convenience shared by implementations ------------------------------
    @staticmethod
    def _fast_row_dots(
        matrix: CSRMatrix,
        rhs: np.ndarray,
        rows: np.ndarray,
        gather: Optional[Gather] = None,
    ) -> np.ndarray:
        """Vectorised per-row dot products for 1 or k columns (fast path)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != matrix.ncols:
            raise ShapeError(f"operand has shape {rhs.shape}, expected "
                             f"({matrix.ncols},) or ({matrix.ncols}, k)")
        if gather is None:
            gather = Gather.of(matrix, rows)
        # Column-major output: each column below is one contiguous row of
        # ``out.T``, as each column of an F-ordered ``rhs`` is of ``rhs.T``.
        out = np.zeros((len(rows),) + rhs.shape[1:], order="F")
        if len(gather.starts):
            val, cols = matrix.val[gather.src], matrix.colidx[gather.src]
            for x, y in zip(np.atleast_2d(rhs.T), np.atleast_2d(out.T)):
                y[gather.nonempty] = np.add.reduceat(val * x[cols],
                                                     gather.starts)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
