"""Kernel abstraction shared by the whole pool.

A :class:`Kernel` is a *strategy*: the same mathematical operation
(per-row dot products with the input vector) realised with a particular
thread organisation.  The auto-tuner treats kernels as opaque -- it only
ever calls :meth:`Kernel.cost` (for predicted
:class:`~repro.device.dispatch.DispatchStats`).  A kernel's identity
never changes a result: every fast path of :meth:`Kernel.compute`, and
the simulated device's one compute pass per request, sum each row with
:func:`row_dots`.

Each kernel's cost model prices a :class:`BinBatch` -- any number of
bins, back to back -- in one pass; a lone bin is a :class:`OneBin`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.dispatch import DispatchStats
from repro.device.spec import DeviceSpec
from repro.errors import KernelError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.utils.primitives import exclusive_scan

__all__ = ["Kernel", "BinBatch", "OneBin", "price_launches", "row_dots",
           "row_products", "row_products_batch", "pad_reshape"]

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


def row_dots(
    val: np.ndarray,
    colidx: np.ndarray,
    starts: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write each row's dot products with ``rhs`` into ``out[rows]``.

    Row ``rows[i]`` holds the entries from ``starts[i]`` up to the next
    start (the last row: to the end of ``val``), so ``rows`` lists only
    non-empty rows.  Each column of ``rhs`` (a vector or an ``(ncols,
    k)`` block, fastest column-major) is its own 1-D ``reduceat``, one
    segment per row in entry order, so column ``c`` is exactly the dots
    of ``rhs[:, c]``.
    """
    if len(starts):
        for x, y in zip(np.atleast_2d(rhs.T), np.atleast_2d(out.T)):
            y[rows] = np.add.reduceat(val * x[colidx], starts)


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

    One output row per wavefront-sized window (the SpGEMM cost model's
    windowing).
    """
    if width <= 0:
        raise KernelError(f"width must be > 0, got {width}")
    values = np.asarray(values)
    n = len(values)
    n_win = -(-n // width) if n else 0
    padded = np.full(n_win * width, fill, dtype=values.dtype)
    padded[:n] = values
    return padded.reshape(n_win, width)


class BinBatch:
    """Bins priced together: each bin a run of rows, the runs back to back.

    Bin ``i`` is rows ``bounds[i]:bounds[i + 1]`` of the batch, and no
    bin is empty.  A cost model reduces per-row (or per-window) terms to
    per-bin ones with the reductions below, so that each bin prices bit
    for bit as it would alone: sums of integer-valued terms (row
    lengths, rounds, line counts) are exact in any order, so
    :meth:`sums` takes one ``reduceat``; any other sum keeps the order
    of a ``.sum()`` over the bin's own slice (:meth:`ordered_sums`).
    """

    __slots__ = ("bounds", "starts")

    def __init__(self, bounds: np.ndarray):
        self.bounds = bounds
        self.starts = bounds[:-1]

    @property
    def n_rows(self) -> np.ndarray:
        """Rows (or windows) per bin."""
        return self.bounds[1:] - self.starts

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-bin sums of integer-valued ``values``."""
        return np.add.reduceat(values, self.starts)

    def maxima(self, values: np.ndarray) -> np.ndarray:
        """Per-bin maxima of ``values``."""
        return np.maximum.reduceat(values, self.starts)

    def ordered_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-bin ``.sum()`` of each bin's slice of ``values``."""
        b = self.bounds.tolist()
        return np.array([values[lo:hi].sum() for lo, hi in zip(b, b[1:])])

    def selected_sums(self, rows: np.ndarray, values: np.ndarray):
        """``(sums, counts)`` per bin of integer-valued ``values`` at the
        ascending row indices ``rows``."""
        cut = np.searchsorted(rows, self.bounds)
        running = np.concatenate(([0.0], np.cumsum(values[rows])))
        return running[cut[1:]] - running[cut[:-1]], cut[1:] - cut[:-1]

    def windows(self, width: int) -> Tuple["BinBatch", "BinBatch"]:
        """``(windows, groups)`` for windows of ``width`` rows.

        ``windows`` cuts every bin into runs of ``width`` consecutive
        rows (its last run holds the remainder) -- the wavefronts of a
        launch; ``groups`` is the batch over those windows whose bin
        ``i`` holds bin ``i``'s windows.
        """
        n_windows = -(-self.n_rows // width)
        ends = np.cumsum(n_windows)
        first = ends - n_windows  # each bin's first window
        starts = (np.repeat(self.starts - first * width, n_windows)
                  + np.arange(ends[-1]) * width)
        return (BinBatch(np.concatenate((starts, self.bounds[-1:]))),
                BinBatch(np.concatenate((first[:1], ends))))


class OneBin(BinBatch):
    """A batch of exactly one bin, whose per-bin terms are scalars.

    The same reductions as :class:`BinBatch` over the whole array --
    a ``reduceat`` over one segment adds as ``.sum()`` does for the
    integer-valued terms it serves -- but each returns a NumPy scalar,
    so the per-bin arithmetic after them costs what it did when cost
    models priced one bin at a time.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__(np.array([0, n]))
        self.n = n

    @property
    def n_rows(self) -> int:
        return self.n

    def sums(self, values: np.ndarray):
        return values.sum()

    def maxima(self, values: np.ndarray):
        return values.max()

    def ordered_sums(self, values: np.ndarray):
        return values.sum()

    def selected_sums(self, rows: np.ndarray, values: np.ndarray):
        return values[rows].sum(), len(rows)

    def windows(self, width: int) -> Tuple[BinBatch, "OneBin"]:
        bounds = np.arange(0, self.n + width, width)
        bounds[-1] = self.n
        return BinBatch(bounds), OneBin(len(bounds) - 1)


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
    ) -> np.ndarray:
        """Dot products of the selected ``rows`` of ``matrix`` with ``rhs``.

        ``rhs`` is a vector or an ``(ncols, k)`` block; the result has
        one row per selected row and ``rhs``'s trailing shape.  The
        vectorised fast path gathers the rows' ``val`` and ``colidx``
        once, then reduces each column with one ``reduceat``
        (:func:`row_dots`) -- so column ``c`` is exactly the SpMV of
        ``rhs[:, c]``, and each row sums as the simulated device's one
        compute pass sums it.  The device itself never calls this: a
        launch there only prices.  With ``emulate=True`` the kernel
        reproduces the OpenCL implementation's lane-level staging and
        reduction order for a single vector (slow; for validation),
        equal to the fast path up to floating-point association.
        """

    def cost(
        self,
        row_lengths: np.ndarray,
        locality: float,
        spec: DeviceSpec,
        bounds: Optional[np.ndarray] = None,
    ) -> DispatchStats:
        """Predicted execution statistics for a bin with these row lengths.

        ``locality`` is the matrix's measured gather locality (see
        :func:`repro.device.memory.gather_locality`); ``row_lengths``
        holds the *actual* per-row non-zero counts of every row assigned
        to the bin, in launch order.  With ``bounds`` it holds several
        non-empty bins back to back (bin ``i`` is
        ``row_lengths[bounds[i]:bounds[i + 1]]``), priced in one pass:
        each count of the result is then an array with one entry per
        bin, equal bit for bit to that bin priced alone.
        """
        lengths = np.asarray(row_lengths, dtype=np.float64)
        if bounds is None:
            if not len(lengths):
                return DispatchStats.empty()
            fields = self._price(lengths, OneBin(len(lengths)), locality,
                                 spec)
            lds = fields.pop("lds_bytes_per_wg")
            return DispatchStats(**{k: float(v) for k, v in fields.items()},
                                 lds_bytes_per_wg=lds)
        bounds = np.asarray(bounds, dtype=np.int64)
        if (len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != len(lengths)
                or np.any(bounds[1:] <= bounds[:-1])):
            raise KernelError("bounds must rise strictly from 0 to the "
                              "number of rows")
        return DispatchStats(**self._price(lengths, BinBatch(bounds),
                                           locality, spec))

    def cost_rows(
        self,
        lengths: np.ndarray,
        row_sets: Sequence[np.ndarray],
        locality: float,
        spec: DeviceSpec,
    ) -> DispatchStats:
        """Statistics of one launch over each of ``row_sets``, in one pass.

        ``row_sets`` are non-empty index arrays into a matrix's row
        ``lengths``.  Several sets are one batch (:meth:`cost` with
        ``bounds``); a lone set takes the one-bin path, whose fields are
        Python floats.  Either way :meth:`DispatchStats.unbatch` gives
        one record per set.
        """
        if len(row_sets) == 1:
            return self.cost(lengths[row_sets[0]], locality, spec)
        bounds = np.cumsum([0] + [len(rows) for rows in row_sets])
        return self.cost(lengths[np.concatenate(row_sets)], locality, spec,
                         bounds)

    @abstractmethod
    def _price(
        self,
        lengths: np.ndarray,
        bins: BinBatch,
        locality: float,
        spec: DeviceSpec,
    ) -> dict:
        """The :class:`DispatchStats` fields of every bin of ``bins``:
        each count an array with one entry per bin (a scalar for a
        :class:`OneBin`), and the kernel's ``lds_bytes_per_wg``."""

    # Convenience shared by implementations ------------------------------
    @staticmethod
    def _fast_row_dots(
        matrix: CSRMatrix,
        rhs: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Vectorised per-row dot products for 1 or k columns (fast path)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != matrix.ncols:
            raise ShapeError(f"operand has shape {rhs.shape}, expected "
                             f"({matrix.ncols},) or ({matrix.ncols}, k)")
        src, offsets = _gather_index(matrix, rows)
        nonempty = np.flatnonzero(np.diff(offsets))
        # Column-major output: each column is one contiguous row of
        # ``out.T``, as each column of an F-ordered ``rhs`` is of ``rhs.T``.
        out = np.zeros((len(rows),) + rhs.shape[1:], order="F")
        row_dots(matrix.val[src], matrix.colidx[src], offsets[nonempty],
                 nonempty, rhs, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def price_launches(
    lengths: np.ndarray,
    launches: Sequence[Tuple[Kernel, np.ndarray]],
    locality: float,
    spec: DeviceSpec,
) -> List[DispatchStats]:
    """Statistics of each ``(kernel, rows)`` launch over a matrix with
    row ``lengths``, in order: each kernel prices all of its launches
    with one :meth:`Kernel.cost_rows`."""
    by_kernel: Dict[Kernel, List[int]] = {}
    for i, (kernel, _rows) in enumerate(launches):
        by_kernel.setdefault(kernel, []).append(i)
    stats: List[Optional[DispatchStats]] = [None] * len(launches)
    for kernel, members in by_kernel.items():
        priced = kernel.cost_rows(lengths, [launches[i][1] for i in members],
                                  locality, spec)
        for i, s in zip(members, priced.unbatch()):
            stats[i] = s
    return stats
