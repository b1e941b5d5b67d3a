"""Binning abstractions shared by all schemes.

A binning scheme maps a matrix's rows to an ordered list of bins; the
framework later assigns one kernel per non-empty bin and launches them
in sequence.  Schemes also model the *device-side cost of binning
itself* (the paper's Figure 8 overhead analysis): collecting workloads
and atomically inserting virtual rows into bins.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.spec import DeviceSpec
from repro.errors import BinningError
from repro.formats.csr import CSRMatrix

__all__ = ["BinningResult", "BinningScheme", "binning_pass_seconds"]


@dataclass(frozen=True)
class BinningResult:
    """The outcome of binning one matrix.

    ``bins[b]`` holds the *actual* row indices assigned to bin ``b`` in
    launch order (virtual rows stay expanded and contiguous, preserving
    the adjacent-access benefit the paper's coarse scheme is designed
    for).  Empty bins are permitted and skipped at launch time.
    """

    scheme: str
    bins: Tuple[np.ndarray, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != len(self.labels):
            raise BinningError(
                f"{len(self.bins)} bins but {len(self.labels)} labels"
            )

    @property
    def n_bins(self) -> int:
        """Total bin count (including empty bins)."""
        return len(self.bins)

    @property
    def n_nonempty(self) -> int:
        """Bins that will actually produce a kernel launch."""
        return len(self.non_empty())

    def non_empty(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """``(bin_id, row_indices)`` of every non-empty bin, in bin order."""
        return self._non_empty

    @cached_property
    def _non_empty(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        return tuple((i, rows) for i, rows in enumerate(self.bins) if len(rows))

    def total_rows(self) -> int:
        """Rows covered across all bins (must equal the matrix rows)."""
        return int(sum(len(b) for b in self.bins))

    def validate_partition(self, nrows: int) -> None:
        """Raise :class:`BinningError` unless bins partition ``range(nrows)``."""
        if self.total_rows() != nrows:
            raise BinningError(
                f"bins cover {self.total_rows()} rows, expected {nrows}"
            )
        if nrows:
            all_rows = np.concatenate([b for b in self.bins if len(b)])
            if not np.array_equal(np.sort(all_rows), np.arange(nrows)):
                raise BinningError("bins do not partition the row set")


class BinningScheme(ABC):
    """Strategy object producing a :class:`BinningResult` for any matrix."""

    #: Stable scheme identifier (used in plans and reports).
    name: str = "abstract"

    @abstractmethod
    def bin_rows(self, matrix: CSRMatrix) -> BinningResult:
        """Assign every row of ``matrix`` to a bin."""

    @abstractmethod
    def overhead_seconds(self, matrix: CSRMatrix, spec: DeviceSpec) -> float:
        """Simulated device-side cost of running this binning on ``matrix``."""


def binning_pass_seconds(
    n_items: int,
    max_same_bin: int,
    spec: DeviceSpec,
    *,
    instr_per_item: float = 10.0,
    bytes_per_item: float = 24.0,
) -> float:
    """Shared cost model for one device-side binning pass.

    ``n_items`` threads each read their workload, compute a bin id and
    atomically append to the target bin (Algorithm 2 steps 1+2 fused).
    The throughput part is an ordinary dispatch; on top, atomics to the
    *same* bin serialise, so a pass where ``max_same_bin`` items land in
    one bin pays ``max_same_bin * atomic_cycles`` of serialised time --
    the mechanism that makes ``U = 1`` binning so expensive in Figure 8.
    """
    if n_items <= 0:
        return 0.0
    if max_same_bin < 0 or max_same_bin > n_items:
        raise BinningError(
            f"max_same_bin={max_same_bin} out of range for n_items={n_items}"
        )
    waves = -(-n_items // spec.wavefront_size)
    stats = DispatchStats(
        compute_instructions=waves * (instr_per_item + spec.atomic_cycles),
        longest_wave_instructions=instr_per_item + spec.atomic_cycles,
        longest_dependent_iterations=2.0,
        memory_lines=np.ceil(n_items * bytes_per_item / spec.cacheline_bytes),
        n_waves=float(waves),
        n_workgroups=float(-(-n_items // spec.workgroup_size)),
    )
    parallel = dispatch_seconds(stats, spec)
    serialised = spec.seconds(max_same_bin * spec.atomic_cycles)
    launch = spec.seconds(spec.kernel_launch_cycles)
    return float(max(parallel, serialised) + launch)
