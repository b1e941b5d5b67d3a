"""The auto-tuner: train once, then plan and run any matrix.

This is the paper's Figure 3 put together:

- **offline (fit)**: measure the tuning space over a training corpus,
  train the two-stage classifier (stage 1 picks the binning scheme,
  stage 2 picks a kernel per bin), extract C5.0-style rulesets, and
  report hold-out error rates (the paper observes ~5 % for stage 1 and
  up to ~15 % for stage 2);
- **predict (plan)**: extract the new matrix's features, consult stage
  1 for the scheme, bin the rows, consult stage 2 for each non-empty
  bin's kernel, then bind the plan once -- the bound plan prices the
  prediction, and the plan cache keeps it for the first execution;
- **execute (run)**: launch the plan on the device, paying the binning
  overhead and one launch per non-empty bin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.core.training import (
    MatrixLike,
    build_datasets,
    evaluate_matrix,
    oracle_plan,
)
from repro.core.tuning_space import TuningSpace
from repro.device.executor import SimulatedDevice, SpMVResult
from repro.errors import NotFittedError, TrainingError
from repro.features.extended import extract_extended_features
from repro.features.extract import extract_features
from repro.formats.csr import CSRMatrix
from repro.ml.boosting import BoostedTreesClassifier
from repro.ml.dataset import Dataset, train_test_split
from repro.ml.metrics import error_rate
from repro.ml.rules import RuleSet
from repro.ml.tree import DecisionTreeClassifier
from repro.observe.spans import span
from repro.serve.batch import run_plan_spmv

__all__ = ["AutoTuner", "TrainingReport"]


@dataclass(frozen=True)
class TrainingReport:
    """What the offline phase produced and how well it generalised."""

    n_matrices: int
    n_stage1_samples: int
    n_stage2_samples: int
    #: Hold-out (25 %) error rates; the paper reports ~5 % / ~15 %.
    stage1_error: float
    stage2_error: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrainingReport(matrices={self.n_matrices}, "
            f"stage1_error={self.stage1_error:.1%}, "
            f"stage2_error={self.stage2_error:.1%})"
        )


class AutoTuner:
    """Input-aware SpMV auto-tuner (the paper's framework).

    The default classifier is the boosted committee (``classifier=
    "boosted"``, C5.0's "trials" feature): its raw label error can be
    slightly higher than a single tree's (ties between adjacent
    subvector widths), but it eliminates the *catastrophic*
    mispredictions (e.g. serial on 200-nnz rows) that dominate the
    achieved-time gap to the oracle.  Use ``classifier="tree"`` for the
    single-tree C4.5-style behaviour.
    """

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        space: Optional[TuningSpace] = None,
        *,
        classifier: str = "boosted",
        boosting_trials: int = 8,
        extended_features: bool = False,
        test_fraction: float = 0.25,
        seed: int = 0,
    ):
        if classifier not in ("tree", "boosted"):
            raise TrainingError(
                f"classifier must be 'tree' or 'boosted', got {classifier!r}"
            )
        self.device = device if device is not None else SimulatedDevice()
        self.space = space if space is not None else TuningSpace()
        self.classifier = classifier
        self.boosting_trials = int(boosting_trials)
        self.extended_features = bool(extended_features)
        self.test_fraction = float(test_fraction)
        self.seed = int(seed)
        self.stage1_model = None
        self.stage2_model = None
        self.stage1_rules: Optional[RuleSet] = None
        self.stage2_rules: Optional[RuleSet] = None
        self.report: Optional[TrainingReport] = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def _make_model(self):
        if self.classifier == "boosted":
            return BoostedTreesClassifier(trials=self.boosting_trials)
        return DecisionTreeClassifier()

    def fit(self, corpus: Sequence[MatrixLike]) -> TrainingReport:
        """Measure the corpus, train both stages, return the report."""
        with span("tuner.fit"):
            with span("tuner.measure"):
                stage1, stage2 = build_datasets(
                    corpus,
                    self.device,
                    self.space,
                    extended_features=self.extended_features,
                )
            return self.fit_datasets(stage1, stage2)

    def fit_datasets(self, stage1: Dataset, stage2: Dataset) -> TrainingReport:
        """Train from pre-built datasets (lets callers reuse measurements)."""
        s1_train, s1_test = train_test_split(
            stage1, test_fraction=self.test_fraction, seed=self.seed
        )
        s2_train, s2_test = train_test_split(
            stage2, test_fraction=self.test_fraction, seed=self.seed
        )
        with span("tuner.train.stage1"):
            self.stage1_model = self._make_model().fit(s1_train)
        with span("tuner.train.stage2"):
            self.stage2_model = self._make_model().fit(s2_train)
        # C5.0-style rulesets for inspection (always from single trees;
        # boosted committees don't reduce to one ruleset).
        with span("tuner.rules"):
            rule_tree_1 = (
                self.stage1_model
                if isinstance(self.stage1_model, DecisionTreeClassifier)
                else DecisionTreeClassifier().fit(s1_train)
            )
            rule_tree_2 = (
                self.stage2_model
                if isinstance(self.stage2_model, DecisionTreeClassifier)
                else DecisionTreeClassifier().fit(s2_train)
            )
            self.stage1_rules = RuleSet.from_tree(rule_tree_1, s1_train)
            self.stage2_rules = RuleSet.from_tree(rule_tree_2, s2_train)
        self.report = TrainingReport(
            n_matrices=stage1.n_samples,
            n_stage1_samples=stage1.n_samples,
            n_stage2_samples=stage2.n_samples,
            stage1_error=error_rate(
                s1_test.y, self.stage1_model.predict(s1_test.X)
            ),
            stage2_error=error_rate(
                s2_test.y, self.stage2_model.predict(s2_test.X)
            ),
        )
        return self.report

    # ------------------------------------------------------------------
    # Predict phase
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.stage1_model is None or self.stage2_model is None:
            raise NotFittedError("AutoTuner.fit() must run before planning")

    def _features(self, matrix: CSRMatrix) -> np.ndarray:
        if self.extended_features:
            return extract_extended_features(matrix)
        return extract_features(matrix).to_vector()

    def plan(self, matrix: CSRMatrix) -> ExecutionPlan:
        """Predict the parallelisation strategy for a new matrix."""
        self._check_fitted()
        with span("tuner.plan"):
            return self._plan_unspanned(matrix)

    def _plan_unspanned(self, matrix: CSRMatrix) -> ExecutionPlan:
        vec = self._features(matrix)
        scheme_index = int(self.stage1_model.predict(vec[None, :])[0])
        scheme = self.space.schemes()[scheme_index]
        binning = scheme.bin_rows(matrix)
        u = self.space.scheme_u_value(scheme_index)
        non_empty = [b for b, _ in binning.non_empty()]
        bin_kernels = {}
        if non_empty:
            rows = np.vstack(
                [np.concatenate([vec, [u, b]]) for b in non_empty]
            )
            preds = self.stage2_model.predict(rows)
            bin_kernels = {
                b: self.space.kernel_names[int(k)]
                for b, k in zip(non_empty, preds)
            }
        plan = ExecutionPlan(scheme=scheme, binning=binning,
                             bin_kernels=bin_kernels, source="predicted")
        # Binding is the one pricing: the prediction is read from the
        # bound plan, which rides along for the plan cache to keep.
        bound = plan.bind(self.device, matrix)
        return replace(plan, predicted_seconds=bound.predicted_seconds(),
                       bound=bound)

    def oracle_plan(self, matrix: CSRMatrix) -> ExecutionPlan:
        """Exhaustive-search plan (no classifier involved)."""
        return oracle_plan(matrix, self.device, self.space)

    # ------------------------------------------------------------------
    # Execute phase
    # ------------------------------------------------------------------
    def run(
        self,
        matrix: CSRMatrix,
        v: np.ndarray,
        *,
        plan: Optional[ExecutionPlan] = None,
    ) -> SpMVResult:
        """Plan (unless given) and execute the binned SpMV.

        A plan made here runs as it was bound for its prediction; a
        given plan binds for ``matrix``.
        """
        if plan is None:
            return self.device.run_spmv(matrix, v, self.plan(matrix).bound)
        return run_plan_spmv(self.device, matrix, v, plan)

    def evaluate_strategies(self, matrix: CSRMatrix):
        """Expose the raw per-scheme measurements (for analysis/benches)."""
        return evaluate_matrix(matrix, self.device, self.space)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the fitted tuner to JSON-compatible primitives."""
        from dataclasses import asdict

        from repro.ml.serialize import (
            SCHEMA_VERSION,
            classifier_to_dict,
            ruleset_to_dict,
        )

        self._check_fitted()
        return {
            "schema": SCHEMA_VERSION,
            "kind": "autotuner",
            "classifier": self.classifier,
            "boosting_trials": self.boosting_trials,
            "extended_features": self.extended_features,
            "test_fraction": self.test_fraction,
            "seed": self.seed,
            "space": {
                "granularities": list(self.space.granularities),
                "kernel_names": list(self.space.kernel_names),
                "include_single_bin": self.space.include_single_bin,
                "max_bins": self.space.max_bins,
            },
            "device_spec": asdict(self.device.spec),
            "stage1_model": classifier_to_dict(self.stage1_model),
            "stage2_model": classifier_to_dict(self.stage2_model),
            "stage1_rules": ruleset_to_dict(self.stage1_rules),
            "stage2_rules": ruleset_to_dict(self.stage2_rules),
            "report": {
                "n_matrices": self.report.n_matrices,
                "n_stage1_samples": self.report.n_stage1_samples,
                "n_stage2_samples": self.report.n_stage2_samples,
                "stage1_error": self.report.stage1_error,
                "stage2_error": self.report.stage2_error,
            } if self.report is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AutoTuner":
        """Rebuild a fitted tuner serialised by :meth:`to_dict`."""
        from repro.device.spec import DeviceSpec
        from repro.ml.serialize import classifier_from_dict, ruleset_from_dict

        if payload.get("kind") != "autotuner":
            raise TrainingError(
                f"expected kind 'autotuner', got {payload.get('kind')!r}"
            )
        space = TuningSpace(
            granularities=tuple(payload["space"]["granularities"]),
            kernel_names=tuple(payload["space"]["kernel_names"]),
            include_single_bin=payload["space"]["include_single_bin"],
            max_bins=payload["space"]["max_bins"],
        )
        device = SimulatedDevice(DeviceSpec(**payload["device_spec"]))
        tuner = cls(
            device=device,
            space=space,
            classifier=payload["classifier"],
            boosting_trials=payload["boosting_trials"],
            extended_features=payload["extended_features"],
            test_fraction=payload["test_fraction"],
            seed=payload["seed"],
        )
        tuner.stage1_model = classifier_from_dict(payload["stage1_model"])
        tuner.stage2_model = classifier_from_dict(payload["stage2_model"])
        tuner.stage1_rules = ruleset_from_dict(payload["stage1_rules"])
        tuner.stage2_rules = ruleset_from_dict(payload["stage2_rules"])
        if payload.get("report") is not None:
            tuner.report = TrainingReport(**payload["report"])
        return tuner

    def save(self, path) -> None:
        """Write the fitted tuner to a JSON file."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "AutoTuner":
        """Load a tuner previously written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
