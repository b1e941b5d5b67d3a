"""Offline training: exhaustive measurement and dataset construction.

The paper's off-line process (Figure 3, green arrows): run every
candidate binning scheme, measure every kernel on every resulting bin,
label the winners, and emit two training tables:

- **stage 1** -- Table I features -> best binning scheme;
- **stage 2** -- Table I features + ``U`` + ``binID`` -> best kernel for
  that bin (trained across *all* candidate schemes so the classifier
  generalises over ``U``).

All measurement is honest: labels come exclusively from the device
model's simulated times (never from rules about which kernel "should"
win), mirroring how the paper's labels come from hardware timing runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.core.tuning_space import TuningSpace
from repro.device.dispatch import dispatch_seconds
from repro.device.executor import SimulatedDevice
from repro.device.memory import effective_gather_locality
from repro.errors import TrainingError
from repro.features.extended import (
    EXTENDED_FEATURE_NAMES,
    extract_extended_features,
)
from repro.features.extract import FEATURE_NAMES, extract_features
from repro.formats.csr import CSRMatrix
from repro.kernels.registry import get_kernel
from repro.matrices.collection import CollectionSpec
from repro.ml.dataset import Dataset

__all__ = [
    "SchemeEvaluation",
    "evaluate_matrix",
    "oracle_plan",
    "build_datasets",
    "MatrixLike",
]

#: Training inputs may be bare matrices or lazy collection specs.
MatrixLike = Union[CSRMatrix, CollectionSpec]

#: Rows of distinct bins :func:`evaluate_matrix` prices per batch: every
#: scheme's bins of a small matrix in one, while a large matrix's eleven
#: schemes do not all sit in memory as one batch.
ROWS_PER_BATCH = 1 << 16


@dataclass(frozen=True)
class SchemeEvaluation:
    """Measured outcome of one binning scheme on one matrix."""

    scheme_index: int
    scheme_label: str
    #: ``bin_id -> (best kernel name, simulated seconds)`` per non-empty bin.
    best_kernels: Dict[int, Tuple[str, float]]
    #: Total simulated seconds: best kernels + launches + binning overhead.
    total_seconds: float
    binning_overhead: float
    n_launches: int


def _materialise(item: MatrixLike) -> CSRMatrix:
    return item.build() if isinstance(item, CollectionSpec) else item


def evaluate_matrix(
    matrix: CSRMatrix,
    device: SimulatedDevice,
    space: TuningSpace,
    *,
    locality: Optional[float] = None,
) -> List[SchemeEvaluation]:
    """Measure every scheme (and every kernel per bin) on ``matrix``.

    Schemes often bin alike (every large ``U`` puts a small matrix in
    one bin, as the single-bin scheme does), so each distinct row set
    is priced once and its best kernel reused by every bin holding it.
    The distinct row sets of all schemes are priced together, one
    batch of at most :data:`ROWS_PER_BATCH` rows (or one larger bin)
    per call of each kernel.
    """
    spec = device.spec
    g = (effective_gather_locality(matrix, spec) if locality is None
        else float(locality))
    lengths = matrix.row_lengths()
    kernels = [get_kernel(n) for n in space.kernel_names]
    launch_s = spec.seconds(spec.kernel_launch_cycles)
    #: row-set bytes -> index of the distinct row set
    index: Dict[bytes, int] = {}
    #: (best kernel name, simulated seconds) per priced distinct row set
    priced: List[Tuple[str, float]] = []
    #: distinct row sets not priced yet, and their total row count
    pending: List[np.ndarray] = []
    pending_rows = 0

    def price_pending() -> None:
        nonlocal pending_rows
        times = np.array([
            dispatch_seconds(kernel.cost_rows(lengths, pending, g, spec), spec)
            for kernel in kernels
        ]).reshape(len(kernels), len(pending))
        # The first minimum in kernel order wins, as a strict < keeps it.
        best = times.argmin(axis=0)
        priced.extend(zip([kernels[k].name for k in best.tolist()],
                          times[best, np.arange(len(best))].tolist()))
        pending.clear()
        pending_rows = 0

    #: per scheme: (overhead, [(bin id, distinct row set index)])
    schemes = []
    for scheme in space.schemes():
        bins = []
        for b, rows in scheme.bin_rows(matrix).non_empty():
            row_set = np.asarray(rows, dtype=np.int64).tobytes()
            if row_set not in index:
                if pending and pending_rows + len(rows) > ROWS_PER_BATCH:
                    price_pending()
                index[row_set] = len(index)
                pending.append(rows)
                pending_rows += len(rows)
            bins.append((b, index[row_set]))
        schemes.append((scheme.overhead_seconds(matrix, spec), bins))
    if pending:
        price_pending()

    out: List[SchemeEvaluation] = []
    for si, (overhead, bins) in enumerate(schemes):
        best = {b: priced[i] for b, i in bins}
        total = overhead
        for _name, t in best.values():
            total += t + launch_s
        out.append(
            SchemeEvaluation(
                scheme_index=si,
                scheme_label=space.scheme_labels[si],
                best_kernels=best,
                total_seconds=float(total),
                binning_overhead=float(overhead),
                n_launches=len(bins),
            )
        )
    return out


def oracle_plan(
    matrix: CSRMatrix,
    device: SimulatedDevice,
    space: TuningSpace,
    *,
    locality: Optional[float] = None,
) -> ExecutionPlan:
    """The exhaustive-search optimum: best scheme, best kernel per bin.

    This is the label-generating optimum of the offline phase and the
    upper bound any predictor can reach.
    """
    evals = evaluate_matrix(matrix, device, space, locality=locality)
    if not evals:
        raise TrainingError("tuning space produced no evaluations")
    best = min(evals, key=lambda e: e.total_seconds)
    scheme = space.schemes()[best.scheme_index]
    binning = scheme.bin_rows(matrix)
    return ExecutionPlan(
        scheme=scheme,
        binning=binning,
        bin_kernels={b: k for b, (k, _) in best.best_kernels.items()},
        predicted_seconds=best.total_seconds,
        source="oracle",
    )


def build_datasets(
    corpus: Sequence[MatrixLike],
    device: SimulatedDevice,
    space: TuningSpace,
    *,
    extended_features: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[Dataset, Dataset]:
    """Construct the two-stage training tables from a matrix corpus.

    Returns ``(stage1, stage2)``:

    - stage-1 rows: one per matrix; label = index of the best scheme.
    - stage-2 rows: one per (scheme, non-empty bin) pair of every
      matrix; features are the matrix vector + ``U`` + ``binID``; label
      = index of the bin's best kernel under that scheme.
    """
    if len(corpus) == 0:
        raise TrainingError("empty training corpus")
    feat_names = (
        EXTENDED_FEATURE_NAMES if extended_features else FEATURE_NAMES
    )
    extractor = (
        extract_extended_features
        if extended_features
        else (lambda m: extract_features(m).to_vector())
    )
    kernel_index = {n: i for i, n in enumerate(space.kernel_names)}

    X1: List[np.ndarray] = []
    y1: List[int] = []
    X2: List[np.ndarray] = []
    y2: List[int] = []
    for i, item in enumerate(corpus):
        matrix = _materialise(item)
        vec = extractor(matrix)
        evals = evaluate_matrix(matrix, device, space)
        best = min(evals, key=lambda e: e.total_seconds)
        X1.append(vec)
        y1.append(best.scheme_index)
        for ev in evals:
            u = space.scheme_u_value(ev.scheme_index)
            for b, (kname, _) in ev.best_kernels.items():
                X2.append(np.concatenate([vec, [u, b]]))
                y2.append(kernel_index[kname])
        if progress is not None:
            progress(i + 1, len(corpus))

    stage1 = Dataset(
        np.vstack(X1),
        np.asarray(y1),
        feat_names,
        space.scheme_labels,
    )
    stage2 = Dataset(
        np.vstack(X2),
        np.asarray(y2),
        feat_names + ("U", "binID"),
        space.kernel_names,
    )
    return stage1, stage2
