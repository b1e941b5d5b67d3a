"""Online (kernel, U) selection: a budgeted bandit over the tree's arms.

The paper trains its C5.0 selection tree offline and freezes it.  This
module closes the loop: the server keeps serving the tree's prediction
(the *incumbent* arm) but, under an explicit exploration budget, also
tries alternative ``(granularity U, kernel)`` plans and feeds the
observed latency back.  Arms are keyed by the matrix's *(bin-scheme,
Table-I feature bucket)* -- matrices that bucket together share one arm
table, so what exploration learns on one matrix transfers to its
structural neighbours.

Design constraints, in order:

1. **Provably opt-in.**  With ``epsilon=0`` the selector always picks
   the ``tree`` arm, so arm choice *and* results are bit-identical to
   the static-tree server (pinned by test across all three execution
   backends).  A non-tree arm can only become the exploit choice after
   ``min_pulls`` real observations beat the incumbent's mean --
   analytical priors order exploration, they never dethrone the tree
   without data.
2. **Budgeted exploration.**  Exploration triggers with probability
   ``epsilon`` per eligible decision and is additionally capped per
   key (``max_explore_per_key``) and globally
   (``max_explore_fraction`` of all decisions).  Requests carrying a
   deadline are never eligible (the server gates them via
   :meth:`~repro.serve.frontdoor.FrontDoor.exploration_allowed`).
3. **Deterministic.**  The RNG is seeded, candidate ordering is fixed,
   and UCB tie-breaks are by arm order -- a seeded single-threaded
   workload replays its decision stream byte-for-byte
   (:meth:`~repro.learn.log.DecisionLog.replay_digest`).
4. **Resilient.**  An arm whose executions fault or degrade is
   penalized (its mean absorbs a multiple of its prior) and quarantined
   from exploration after ``fault_quarantine`` faults -- never retried
   forever.

Priors are the device's own price: each arm's prior is its plan bound
on the server's device (:meth:`~repro.device.executor.SimulatedDevice.bind`),
read as ``predicted_seconds()`` -- the seconds a run of that arm is
charged, kernels, launches and binning overhead, the scale every
observation is on.  Each key is seeded once, when it is first seen, so
seeding an arm table costs the model once, not per decision.  The
request that seeds a key runs the base plan its tree prior came from,
so a new key is planned once.
"""

from __future__ import annotations

import math
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.binning.coarse import CoarseBinning
from repro.binning.single import SingleBinning
from repro.core.plan import ExecutionPlan
from repro.device.executor import SimulatedDevice
from repro.device.memory import effective_gather_locality
from repro.features.extract import extract_features
from repro.formats.csr import CSRMatrix
from repro.observe.registry import MetricsRegistry, get_registry
from repro.learn.log import DecisionLog, DecisionRecord

__all__ = [
    "Arm",
    "TREE_ARM_NAME",
    "LearningPolicy",
    "Decision",
    "OnlineSelector",
    "LearnStats",
    "feature_bucket",
]

#: The incumbent arm: delegate planning to the offline tree/base planner.
TREE_ARM_NAME = "tree"


@dataclass(frozen=True)
class Arm:
    """One candidate plan family: the tree, or a (U, kernel) override."""

    name: str
    #: Coarse granularity U (0 = single bin); ``None`` for the tree arm.
    granularity: Optional[int] = None
    #: Kernel applied uniformly to every non-empty bin; ``None`` = tree.
    kernel: Optional[str] = None

    @property
    def is_tree(self) -> bool:
        return self.granularity is None


@dataclass(frozen=True)
class LearningPolicy:
    """Configuration for :class:`OnlineSelector`.

    Parameters
    ----------
    epsilon:
        Per-decision exploration probability.  ``0`` disables
        exploration entirely: the selector is then bit-identical to the
        static tree.
    strategy:
        How the *explored* arm is chosen once exploration triggers:
        ``"ucb"`` (default) picks the candidate with the lowest
        optimistic cost bound (mean minus a ``ucb_c``-scaled confidence
        bonus; unpulled arms are ordered by their analytical prior);
        ``"epsilon"`` picks uniformly at random.
    ucb_c:
        Confidence-bonus scale for the ``"ucb"`` strategy, in units of
        the arm's prior (so the bonus is scale-free across matrices).
    max_explore_per_key:
        Hard cap on explorations charged to any single arm-table key.
    max_explore_fraction:
        Hard cap on the global fraction of decisions that may explore
        -- the regret/error budget.  The selector never lets
        ``explored / decisions`` exceed this.
    min_pulls:
        Observations a non-incumbent arm needs before it may become
        the exploit choice for its key.
    fault_quarantine:
        Faulted/degraded observations after which an arm is excluded
        from further exploration for its key.
    penalty_factor:
        A faulting arm's observation is recorded as
        ``max(observed, prior * penalty_factor)`` -- failure is
        expensive, so the mean reflects it.
    granularities / kernel_names:
        The candidate (U, kernel) grid.  Every pair becomes one arm
        next to the ``tree`` arm.
    seed:
        Exploration RNG seed.
    log_capacity:
        Ring capacity of the attached :class:`~repro.learn.log.DecisionLog`.
    """

    epsilon: float = 0.1
    strategy: str = "ucb"
    ucb_c: float = 0.5
    max_explore_per_key: int = 16
    max_explore_fraction: float = 0.2
    min_pulls: int = 3
    fault_quarantine: int = 3
    penalty_factor: float = 10.0
    granularities: Tuple[int, ...] = (0, 50, 500, 10_000)
    kernel_names: Tuple[str, ...] = (
        "serial", "vector", "subvector8", "subvector32",
    )
    seed: int = 0
    log_capacity: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.strategy not in ("ucb", "epsilon"):
            raise ValueError(
                f"strategy must be 'ucb' or 'epsilon', got {self.strategy!r}"
            )
        if not 0.0 <= self.max_explore_fraction <= 1.0:
            raise ValueError(
                f"max_explore_fraction must be in [0, 1], "
                f"got {self.max_explore_fraction}"
            )
        if self.max_explore_per_key < 0:
            raise ValueError("max_explore_per_key must be >= 0")
        if self.min_pulls < 1:
            raise ValueError("min_pulls must be >= 1")
        if self.penalty_factor < 1.0:
            raise ValueError("penalty_factor must be >= 1")
        if not self.granularities or not self.kernel_names:
            raise ValueError("candidate grid must be non-empty")


@dataclass(frozen=True)
class Decision:
    """One arm choice, handed back to :meth:`OnlineSelector.observe`."""

    digest: str
    key: str
    arm: Arm
    explored: bool
    prior_seconds: float
    #: True when the arm differs from the last arm this digest was
    #: planned under -- the server must invalidate the cached plan(s)
    #: so the new arm's plan is built (the existing ``invalidate()``
    #: path, shard layer included).
    replan: bool
    features: Tuple[float, ...]
    model_version: int
    #: ``(matrix, base plan)`` when this decision's request seeded its
    #: key under the tree arm: :meth:`OnlineSelector.plan` hands that
    #: plan back for that matrix object instead of planning it again.
    #: ``None`` on every other decision.
    seeded: Optional[Tuple[CSRMatrix, ExecutionPlan]] = field(
        default=None, compare=False, repr=False)


@dataclass
class _ArmState:
    pulls: int = 0
    total_cost: float = 0.0
    faults: int = 0

    @property
    def mean(self) -> float:
        return self.total_cost / self.pulls if self.pulls else float("inf")


@dataclass(frozen=True)
class ArmSnapshot:
    """Per-arm accounting across all keys (observability)."""

    arm: str
    pulls: int
    mean_seconds: float
    faults: int


@dataclass(frozen=True)
class LearnStats:
    """Point-in-time snapshot of the selector's accounting."""

    decisions: int
    explored: int
    regret_seconds: float
    model_version: int
    keys: int
    arms: Tuple[ArmSnapshot, ...]
    log_appended: int
    log_dropped: int

    @property
    def exploration_rate(self) -> float:
        return self.explored / self.decisions if self.decisions else 0.0

    def describe(self) -> str:
        """Readable multi-line summary (CLI / logs)."""
        lines = [
            f"decisions          : {self.decisions} "
            f"({self.explored} explored, rate "
            f"{self.exploration_rate:.1%})",
            f"regret estimate    : {self.regret_seconds * 1e3:.3f} ms "
            f"simulated",
            f"model version      : {self.model_version} "
            f"({self.keys} arm-table keys, "
            f"{self.log_appended} decisions logged, "
            f"{self.log_dropped} aged out)",
        ]
        pulled = [a for a in self.arms if a.pulls]
        for a in sorted(pulled, key=lambda a: (-a.pulls, a.arm)):
            mean = (f"{a.mean_seconds * 1e6:.2f}us"
                    if math.isfinite(a.mean_seconds) else "n/a")
            faults = f", {a.faults} faults" if a.faults else ""
            lines.append(
                f"  arm {a.arm:<16s}: {a.pulls} pulls, "
                f"mean {mean}{faults}"
            )
        return "\n".join(lines)


def feature_bucket(features) -> str:
    """Quantize a Table-I feature vector into a coarse arm-table key.

    Buckets are log2 on size/volume (``M``, ``NNZ``, ``Avg_NNZ``) plus
    a coarse coefficient-of-variation band for the row-length spread --
    the axes along which the paper's tree actually splits.  Matrices in
    one bucket share an arm table, so observed latencies transfer
    across structurally similar traffic.
    """
    def lg(v: float) -> int:
        return int(round(math.log2(v))) if v > 0 else -1

    avg = features.avg_nnz
    cv = math.sqrt(features.var_nnz) / avg if avg > 0 else 0.0
    cv_band = min(8, int(cv * 2.0))
    return (
        f"m{lg(features.m)}|nnz{lg(features.nnz)}"
        f"|avg{lg(avg)}|cv{cv_band}"
    )


class OnlineSelector:
    """Budgeted bandit over (kernel, U) arms, wrapped around a planner.

    The selector owns three things: the per-key arm tables (priors +
    observed means), the thread-local *active decision* that routes
    :meth:`plan` to the chosen arm while a request executes, and the
    bounded :class:`~repro.learn.log.DecisionLog` that feeds
    :func:`~repro.learn.retrain.retrain`.

    Wiring (done by :class:`~repro.serve.server.SpMVServer` when built
    with ``learning=LearningPolicy(...)``): the server installs
    :meth:`plan` as its planner -- plan cache, sharded executor and all
    -- and hands its unwrapped device in as ``device``, which prices the
    priors; then per request it calls :meth:`decide`, executes inside
    :meth:`activate`, and reports back via :meth:`observe`.
    """

    def __init__(
        self,
        policy: LearningPolicy,
        base_planner: Callable[[CSRMatrix], ExecutionPlan],
        *,
        device: Optional[SimulatedDevice] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy = policy
        self._base = base_planner
        self.device = SimulatedDevice() if device is None else device
        self.registry = get_registry() if registry is None else registry
        self.log = DecisionLog(policy.log_capacity)
        self._rng = random.Random(policy.seed)
        self._lock = threading.Lock()
        self._active = threading.local()
        tree = Arm(TREE_ARM_NAME)
        candidates = tuple(
            Arm(f"u{u}:{k}", granularity=u, kernel=k)
            for u in policy.granularities
            for k in policy.kernel_names
        )
        self.arms: Tuple[Arm, ...] = (tree,) + candidates
        self._arm_by_name: Dict[str, Arm] = {a.name: a for a in self.arms}
        #: key -> arm name -> state
        self._tables: Dict[str, Dict[str, _ArmState]] = {}
        #: (key, arm name) -> analytical prior (simulated seconds)
        self._priors: Dict[Tuple[str, str], float] = {}
        self._explored_by_key: Dict[str, int] = {}
        self._decisions = 0
        self._explored = 0
        self._regret = 0.0
        self._seq = 0
        #: digest -> (key, feature vector) memo (decide is per request).
        self._digest_info: Dict[str, Tuple[str, Tuple[float, ...]]] = {}
        #: digest -> arm name the cached plan(s) were built under.
        self._committed: Dict[str, str] = {}
        #: Hot-swappable retrained model: (classifier, class names).
        self._model: Optional[Tuple[Any, Tuple[str, ...]]] = None
        self.model_version = 0
        self.provenance: List[Dict[str, Any]] = [
            {"version": 0, "source": "offline", "note": "base planner"}
        ]
        # Instruments resolved once; per-arm pulls lazily per label.
        self._m_decisions = {
            mode: self.registry.counter(
                "learn_decisions_total", {"mode": mode},
                help_text="Online-selector decisions by mode.",
            )
            for mode in ("exploit", "explore")
        }
        self._m_pulls: Dict[str, Any] = {}
        self._m_regret = self.registry.gauge(
            "learn_regret_seconds",
            help_text="Estimated cumulative exploration regret "
                      "(simulated seconds).",
        )
        self._m_rate = self.registry.gauge(
            "learn_exploration_rate",
            help_text="Explored fraction of all selector decisions.",
        )
        self._m_version = self.registry.gauge(
            "learn_model_version",
            help_text="Version of the selection model behind the "
                      "selector (0 = offline tree).",
        )
        self._m_version.set(0.0)
        self._m_retrains = self.registry.counter(
            "learn_retrains_total",
            help_text="Models hot-swapped behind the selector.",
        )

    # -- planning hook ---------------------------------------------------
    def plan(self, matrix: CSRMatrix) -> ExecutionPlan:
        """Plan ``matrix`` under the thread's active decision.

        Installed as the server's planner, so the plan cache *and* the
        sharded executor's per-shard planning route through the active
        arm.  Without an active decision (or under the ``tree`` arm)
        this is exactly the base planner; the request that seeded its
        key gets the base plan the seeding made for the same matrix
        object (shards are other objects, and plan afresh).
        """
        decision: Optional[Decision] = getattr(self._active, "decision", None)
        seeded = None if decision is None else decision.seeded
        if seeded is not None and seeded[0] is matrix:
            return seeded[1]
        if decision is None or decision.arm.is_tree:
            return self._base(matrix)
        return self._arm_plan(matrix, decision.arm)

    @staticmethod
    def _arm_scheme(arm: Arm):
        """The binning of a (U, kernel) arm: ``U = 0`` is a single bin."""
        return (
            SingleBinning() if arm.granularity == 0
            else CoarseBinning(arm.granularity)
        )

    @staticmethod
    def _arm_plan(matrix: CSRMatrix, arm: Arm,
                  binning=None) -> ExecutionPlan:
        """Build one (U, kernel) override plan: uniform kernel per bin.

        ``binning`` is ``matrix`` already binned at the arm's
        granularity, when the caller has it.
        """
        scheme = OnlineSelector._arm_scheme(arm)
        if binning is None:
            binning = scheme.bin_rows(matrix)
        return ExecutionPlan(
            scheme=scheme,
            binning=binning,
            bin_kernels={b: arm.kernel for b, _ in binning.non_empty()},
            source="learned",
        )

    @contextmanager
    def activate(self, decision: Decision) -> Iterator[None]:
        """Route :meth:`plan` to ``decision``'s arm on this thread.

        Planning happens synchronously on the submitting thread in
        every backend (inline and process shard planning both run
        before the shards execute), so a thread-local is exactly the
        right scope.
        """
        previous = getattr(self._active, "decision", None)
        self._active.decision = decision
        try:
            yield
        finally:
            self._active.decision = previous

    # -- deciding --------------------------------------------------------
    def decide(
        self,
        matrix: CSRMatrix,
        digest: str,
        *,
        allow_explore: bool = True,
    ) -> Decision:
        """Choose the arm for one request on ``matrix``.

        ``allow_explore=False`` (requests carrying deadlines, coalesced
        group dispatches) forces the exploit arm.  The returned
        decision's ``replan`` flag tells the server to push the change
        through its ``invalidate()`` path before planning.
        """
        with self._lock:
            info = self._digest_info.get(digest)
            base_plan = None
            if info is None:
                feats = extract_features(matrix)
                key = feature_bucket(feats)
                info = (key, tuple(float(v) for v in feats.to_vector()))
                self._digest_info[digest] = info
                base_plan = self._seed_priors(key, matrix)
            key, features = info
            exploit = self._exploit_arm(key, features)
            arm, explored = exploit, False
            if self._exploration_eligible(key, allow_explore):
                candidate = self._explore_candidate(key, exploit)
                if candidate is not None:
                    arm, explored = candidate, True
                    self._explored += 1
                    self._explored_by_key[key] = (
                        self._explored_by_key.get(key, 0) + 1
                    )
            self._decisions += 1
            last = self._committed.get(digest)
            replan = last is not None and last != arm.name
            self._committed[digest] = arm.name
            prior = self._priors.get((key, arm.name), 0.0)
            decisions, explored_total = self._decisions, self._explored
            version = self.model_version
        self._m_decisions["explore" if explored else "exploit"].inc()
        self._m_rate.set(explored_total / decisions)
        return Decision(
            digest=digest,
            key=key,
            arm=arm,
            explored=explored,
            prior_seconds=prior,
            replan=replan,
            features=features,
            model_version=version,
            seeded=(None if base_plan is None or not arm.is_tree
                    else (matrix, base_plan)),
        )

    def _exploration_eligible(self, key: str, allow_explore: bool) -> bool:
        """Budget checks + the epsilon draw (lock held)."""
        p = self.policy
        if not allow_explore or p.epsilon <= 0.0:
            return False
        if self._explored_by_key.get(key, 0) >= p.max_explore_per_key:
            return False
        # Global regret budget: exploring now must keep the explored
        # fraction at or under the cap.
        if (self._explored + 1) > p.max_explore_fraction * (
                self._decisions + 1):
            return False
        return self._rng.random() < p.epsilon

    def _exploit_arm(self, key: str, features: Tuple[float, ...]) -> Arm:
        """The no-budget choice: incumbent unless data dethroned it.

        The incumbent is the retrained model's prediction when one is
        installed, else the ``tree`` arm.  A different arm wins only
        with ``min_pulls`` observations, no quarantine, and a strictly
        better observed mean than the incumbent's (observed mean when
        it has data, analytical prior otherwise) -- priors alone never
        override the tree.
        """
        incumbent = self._arm_by_name[TREE_ARM_NAME]
        if self._model is not None:
            model, class_names = self._model
            idx = int(model.predict(
                np.asarray([features], dtype=np.float64))[0])
            incumbent = self._arm_by_name.get(class_names[idx], incumbent)
        table = self._tables.get(key)
        if not table:
            return incumbent
        inc_state = table.get(incumbent.name)
        inc_mean = (
            inc_state.mean if inc_state is not None and inc_state.pulls
            else self._priors.get((key, incumbent.name), float("inf"))
        )
        best, best_mean = incumbent, inc_mean
        for arm in self.arms:
            if arm.name == incumbent.name:
                continue
            st = table.get(arm.name)
            if (st is None or st.pulls < self.policy.min_pulls
                    or st.faults >= self.policy.fault_quarantine):
                continue
            if st.mean < best_mean:
                best, best_mean = arm, st.mean
        return best

    def _explore_candidate(self, key: str, exploit: Arm) -> Optional[Arm]:
        """Which non-exploit arm to try (lock held)."""
        table = self._tables.get(key, {})
        candidates = [
            a for a in self.arms
            if a.name != exploit.name
            and table.get(a.name, _ArmState()).faults
            < self.policy.fault_quarantine
        ]
        if not candidates:
            return None
        if self.policy.strategy == "epsilon":
            return candidates[self._rng.randrange(len(candidates))]
        # UCB: lowest optimistic cost bound; the bonus is scaled by the
        # arm's own prior so it is comparable across matrix sizes.
        total = sum(
            table.get(a.name, _ArmState()).pulls for a in self.arms
        )
        log_term = math.log(total + math.e)

        def score(arm: Arm) -> float:
            st = table.get(arm.name, _ArmState())
            prior = self._priors.get((key, arm.name), 0.0)
            mean = st.mean if st.pulls else prior
            bonus = self.policy.ucb_c * max(prior, 1e-12) * math.sqrt(
                log_term / (st.pulls + 1)
            )
            return mean - bonus

        return min(candidates, key=lambda a: (score(a), a.name))

    def _seed_priors(
        self, key: str, matrix: CSRMatrix
    ) -> Optional[ExecutionPlan]:
        """Seed every arm's prior for a fresh key (lock held).

        Every prior is what the device charges one run of the arm's
        plan: the plan bound on :attr:`device`, as
        ``predicted_seconds()``.  The tree arm's prior is the base
        plan's own prediction (bound here when the planner left it
        ``None``); each candidate arm's is its override plan's on the
        first matrix seen for this key.  The matrix's effective gather
        locality is measured once, and each granularity binned and its
        overhead priced once for its kernels.  Returns the base plan,
        for the seeding request to run, or ``None``: a seeded key is
        never seeded again.
        """
        if (key, TREE_ARM_NAME) in self._priors:
            return None
        base_plan = self._base(matrix)
        spec = self.device.spec
        locality = effective_gather_locality(matrix, spec)

        def bound_seconds(plan: ExecutionPlan, overhead: float) -> float:
            return self.device.bind(matrix, plan.dispatches(),
                                    locality=locality,
                                    extra_seconds=overhead).predicted_seconds()

        tree = base_plan.predicted_seconds
        if tree is None:
            tree = bound_seconds(
                base_plan, base_plan.scheme.overhead_seconds(matrix, spec))
        self._priors[(key, TREE_ARM_NAME)] = float(tree)
        #: granularity -> (binning, its overhead)
        binned: Dict[int, Tuple[Any, float]] = {}
        for arm in self.arms:
            if arm.is_tree:
                continue
            if arm.granularity not in binned:
                scheme = self._arm_scheme(arm)
                binned[arm.granularity] = (
                    scheme.bin_rows(matrix),
                    scheme.overhead_seconds(matrix, spec))
            binning, overhead = binned[arm.granularity]
            self._priors[(key, arm.name)] = bound_seconds(
                self._arm_plan(matrix, arm, binning), overhead)
        return base_plan

    # -- feedback --------------------------------------------------------
    def observe(
        self,
        decision: Decision,
        *,
        simulated: float,
        wall: float,
        outcome: str = "ok",
    ) -> None:
        """Feed one executed request's latency back into its arm.

        ``outcome`` other than ``"ok"`` (``"degraded"`` / ``"error"``)
        counts a fault against the arm and records a penalized cost, so
        a faulting explored arm prices itself out instead of being
        retried forever (and is quarantined from exploration once it
        reaches ``fault_quarantine`` faults).
        """
        arm_name = decision.arm.name
        with self._lock:
            table = self._tables.setdefault(decision.key, {})
            st = table.setdefault(arm_name, _ArmState())
            cost = float(simulated)
            if outcome != "ok":
                st.faults += 1
                prior = self._priors.get(
                    (decision.key, arm_name), cost
                )
                cost = max(cost, prior * self.policy.penalty_factor, 1e-12)
            st.pulls += 1
            st.total_cost += cost
            if decision.explored:
                # Regret estimate: what exploring cost over the best
                # known mean for this key (0 when the explored arm won).
                best = min(
                    (s.mean for s in table.values() if s.pulls),
                    default=cost,
                )
                self._regret += max(0.0, cost - best)
            self._seq += 1
            record = DecisionRecord(
                seq=self._seq,
                digest=decision.digest,
                key=decision.key,
                arm=arm_name,
                explored=decision.explored,
                prior_seconds=decision.prior_seconds,
                simulated_seconds=float(simulated),
                wall_seconds=float(wall),
                outcome=outcome,
                features=decision.features,
                model_version=decision.model_version,
            )
            regret = self._regret
        self.log.append(record)
        counter = self._m_pulls.get(arm_name)
        if counter is None:
            counter = self.registry.counter(
                "learn_pulls_total", {"arm": arm_name},
                help_text="Arm pulls observed by the online selector.",
            )
            self._m_pulls[arm_name] = counter
        counter.inc()
        self._m_regret.set(regret)

    # -- hot swap --------------------------------------------------------
    def install_model(
        self,
        model: Any,
        class_names: Tuple[str, ...],
        *,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Hot-swap the selection model behind the selector.

        ``model`` must expose ``predict(X) -> labels`` over Table-I
        feature rows with labels indexing ``class_names`` (arm names).
        Returns the new model version.  In-flight decisions finish
        under the version they started with; the *next* ``decide`` per
        digest sees the swap and flags a replan if its committed arm
        changes -- cache refresh rides the existing invalidate path,
        no global flush.
        """
        unknown = [n for n in class_names if n not in self._arm_by_name]
        if unknown:
            raise ValueError(
                f"model predicts unknown arms {unknown!r}; "
                f"known: {sorted(self._arm_by_name)}"
            )
        with self._lock:
            self._model = (model, tuple(class_names))
            self.model_version += 1
            entry = {"version": self.model_version, "source": "retrain"}
            if provenance:
                entry.update(provenance)
            self.provenance.append(entry)
            version = self.model_version
        self._m_version.set(float(version))
        self._m_retrains.inc()
        return version

    # -- observability ---------------------------------------------------
    def stats(self) -> LearnStats:
        """Immutable snapshot of the selector's accounting."""
        with self._lock:
            merged: Dict[str, _ArmState] = {}
            for table in self._tables.values():
                for name, st in table.items():
                    agg = merged.setdefault(name, _ArmState())
                    agg.pulls += st.pulls
                    agg.total_cost += st.total_cost
                    agg.faults += st.faults
            arms = tuple(
                ArmSnapshot(
                    arm=a.name,
                    pulls=merged.get(a.name, _ArmState()).pulls,
                    mean_seconds=merged.get(a.name, _ArmState()).mean,
                    faults=merged.get(a.name, _ArmState()).faults,
                )
                for a in self.arms
            )
            decisions, explored = self._decisions, self._explored
            regret, version = self._regret, self.model_version
            keys = len(self._tables)
        log_stats = self.log.stats()
        return LearnStats(
            decisions=decisions,
            explored=explored,
            regret_seconds=regret,
            model_version=version,
            keys=keys,
            arms=arms,
            log_appended=log_stats.appended,
            log_dropped=log_stats.dropped,
        )
