"""Memory-system model: coalescing, gather locality, transaction counts.

The dominant effect in CSR SpMV on a GPU is how lane-level accesses map
onto cache-line transactions (the "uncoalesced memory access" problem the
paper's introduction leads with).  This module provides the shared
transaction-count helpers used by every kernel's cost model:

- *streaming* accesses (reading a contiguous byte range once),
- *gathers* of the input vector ``v`` at the matrix's column indices,
  whose cost depends on the matrix's measured column locality,
- the *strided-lane waste factor* for the row-per-thread (serial)
  kernel, where lane ``i`` of a wavefront walks row ``i``'s non-zeros so
  simultaneous lane accesses are spaced by the row length.
"""

from __future__ import annotations

import numpy as np

from repro.device.spec import DeviceSpec
from repro.formats.csr import CSRMatrix

__all__ = [
    "stream_lines",
    "gather_locality",
    "effective_gather_locality",
    "gather_lines",
    "strided_waste_factor",
    "serial_waste_factor",
    "CSR_ELEMENT_BYTES",
    "VALUE_BYTES",
]

#: Bytes per CSR non-zero streamed by a kernel: 8 (float64 val) + 4
#: (int32 colidx on device).
CSR_ELEMENT_BYTES = 12
#: Bytes per input/output vector element.
VALUE_BYTES = 8


def stream_lines(total_bytes, spec: DeviceSpec):
    """Cache lines needed to stream ``total_bytes`` contiguous bytes.

    Works element-wise on arrays.
    """
    return np.ceil(np.asarray(total_bytes, dtype=np.float64) / spec.cacheline_bytes)


def gather_locality(matrix: CSRMatrix, *, window: int = 8) -> float:
    """Measured column locality of the input-vector gather, in [0, 1].

    The fraction of consecutive intra-row column-index pairs that land
    within ``window`` elements of each other (one cache line of float64 =
    8 elements).  Banded/FEM matrices score near 1 (gathers hit cached
    lines); scattered graphs score near 0 (every gather is its own
    transaction).
    """
    if matrix.nnz < 2:
        return 1.0
    diffs = np.diff(matrix.colidx)
    close = np.abs(diffs, out=diffs) <= window
    # A pair across a row boundary relates two rows: leave it out.  Each
    # non-empty row but the first starts exactly one such pair, however
    # many empty rows lie before it.
    starts = matrix.rowptr[:-1][matrix.row_lengths() > 0][1:]
    pairs = matrix.nnz - 1 - len(starts)
    if pairs == 0:
        return 1.0
    return float((np.count_nonzero(close)
                  - np.count_nonzero(close[starts - 1])) / pairs)


def effective_gather_locality(matrix: CSRMatrix, spec: DeviceSpec) -> float:
    """Fraction of input-vector gathers that are *cheap* on this device.

    Two mechanisms make a gather cheap: spatial locality in the column
    indices (measured by :func:`gather_locality`) and the input vector
    simply fitting in the shared L2 cache -- random accesses into a
    resident vector hit cache with probability ~``L2 / vector_bytes``.
    The executor computes this once per matrix and passes it to every
    kernel cost model as the ``locality`` argument, so kernels stay
    device-cache agnostic.
    """
    g = gather_locality(matrix)
    vector_bytes = max(matrix.ncols, 1) * VALUE_BYTES
    resident = min(1.0, spec.l2_bytes / vector_bytes)
    return float(g + (1.0 - g) * resident)


def gather_lines(nnz, locality: float, spec: DeviceSpec):
    """Cache lines fetched to gather ``nnz`` vector elements.

    A perfectly local gather (``locality=1``) streams: one line serves
    ``cacheline/8`` elements.  A perfectly scattered gather
    (``locality=0``) pays one full line per element.  Intermediate
    localities interpolate linearly.  Works element-wise on arrays.
    """
    locality = min(max(float(locality), 0.0), 1.0)
    per_line = spec.cacheline_bytes / VALUE_BYTES
    lines_scattered = np.asarray(nnz, dtype=np.float64)
    lines = lines_scattered / per_line  # a local gather shares lines
    lines *= locality
    lines += (1.0 - locality) * lines_scattered
    return lines


def strided_waste_factor(group_width: int, mean_row_len, spec: DeviceSpec):
    """DRAM-transaction waste of an ``X``-threads-per-row kernel's streams.

    One wavefront load instruction covers ``64 / X`` subgroups; each
    subgroup's ``X`` lanes read ``X * 12`` *contiguous* bytes, and
    consecutive subgroups sit one row stride (``12 * row_len`` bytes)
    apart because bins keep rows adjacent.  The coalescer merges only
    intra-instruction accesses, and with tens of wavefronts multiplexed
    per CU a line's leftover bytes are evicted before reuse, so the
    fetched-to-useful ratio is

    ``waste = clip(mean_row_len / X, 1, cacheline / (12 * X))``

    - ``X = 1`` (Kernel-Serial): rows of length 1 pack perfectly
      (waste 1); length-2 rows use ~24 B of every 64 B line (waste ~2,
      the reason subvector2 overtakes serial on 2-nnz/row matrices);
      capped at 64/12 once each lane owns its line;
    - ``X >= cacheline/12`` (~6): a subgroup's load already spans full
      lines -- no waste, whatever the row length.

    Works element-wise on ``mean_row_len`` arrays.
    """
    if group_width <= 0:
        raise ValueError(f"group_width must be > 0, got {group_width}")
    mean_row_len = np.asarray(mean_row_len, dtype=np.float64)
    max_waste = spec.cacheline_bytes / (CSR_ELEMENT_BYTES * group_width)
    if max_waste <= 1.0:
        return np.ones_like(mean_row_len)
    return np.clip(mean_row_len / group_width, 1.0, max_waste)


def serial_waste_factor(mean_row_len, spec: DeviceSpec):
    """Row-per-thread (``X = 1``) case of :func:`strided_waste_factor`."""
    return strided_waste_factor(1, mean_row_len, spec)
