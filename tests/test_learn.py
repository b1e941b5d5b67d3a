"""Online-learning suite: selector, decision log, retrain, wiring.

Covers the ``repro.learn`` subsystem end to end: the epsilon-0
bit-identity property (the learned server must be indistinguishable
from the static-tree server across every execution backend), the
exploration budget caps, fault penalties/quarantine, the bounded
decision log and its deterministic replay digest, the retrain/hot-swap
pipeline, and the deadline gate that keeps exploration off
latency-bound requests.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.features.extract import extract_features
from repro.formats import CSRMatrix
from repro.learn import (
    Arm,
    DecisionLog,
    DecisionRecord,
    LearningPolicy,
    OnlineSelector,
    TREE_ARM_NAME,
    feature_bucket,
    retrain,
)
from repro.matrices import generators as gen
from repro.observe import MetricsRegistry, set_registry, to_prometheus_text
from repro.serve import AdmissionPolicy, SpMVServer, TenantConfig
from repro.serve.frontdoor import AdmissionTicket, FrontDoor
from repro.serve.server import heuristic_planner
from repro.shard.executor import ShardingPolicy
from repro.shard.scheduler import CoalescePolicy
from repro.trace import SLOTarget, TracingPolicy
from tests.test_bound_plan import _prediction_matrices, _tuner

pytestmark = pytest.mark.learn


def _matrix(seed=0, nrows=300, ncols=300, max_len=12):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, ncols, rng=rng)


def _record(seq, *, key="k", arm="tree", explored=False, simulated=1e-4,
            wall=1e-3, outcome="ok", features=(1.0, 2.0), digest="d",
            prior=1e-4, version=0):
    return DecisionRecord(
        seq=seq, digest=digest, key=key, arm=arm, explored=explored,
        prior_seconds=prior, simulated_seconds=simulated,
        wall_seconds=wall, outcome=outcome, features=tuple(features),
        model_version=version,
    )


def _selector(policy=None, **kwargs):
    return OnlineSelector(
        policy or LearningPolicy(), heuristic_planner, **kwargs
    )


# ----------------------------------------------------------------------
# Feature bucketing
# ----------------------------------------------------------------------
class TestFeatureBucket:
    def test_deterministic_and_value_insensitive(self):
        m = _matrix(0)
        rng = np.random.default_rng(9)
        revalued = CSRMatrix(
            m.rowptr, m.colidx, rng.standard_normal(m.nnz), m.shape
        )
        a = feature_bucket(extract_features(m))
        assert a == feature_bucket(extract_features(m))
        assert a == feature_bucket(extract_features(revalued))

    def test_structural_neighbours_share_a_bucket(self):
        # Two draws of the same generator parameters should key the
        # same arm table -- that is what makes observations transfer.
        a = feature_bucket(extract_features(gen.banded(1000, bandwidth=5,
                                                       seed=1)))
        b = feature_bucket(extract_features(gen.banded(1000, bandwidth=5,
                                                       seed=2)))
        assert a == b

    def test_different_scales_bucket_apart(self):
        small = feature_bucket(extract_features(_matrix(0, nrows=200)))
        large = feature_bucket(extract_features(_matrix(0, nrows=6000)))
        assert small != large

    def test_empty_matrix_does_not_crash(self):
        m = CSRMatrix.from_row_lengths(
            np.zeros(4, dtype=np.int64), 4, rng=np.random.default_rng(0)
        )
        assert feature_bucket(extract_features(m)).startswith("m2|")


# ----------------------------------------------------------------------
# Decision log
# ----------------------------------------------------------------------
class TestDecisionLog:
    def test_bounded_ring_counts_evictions(self):
        log = DecisionLog(capacity=3)
        for i in range(5):
            log.append(_record(i))
        stats = log.stats()
        assert len(log) == 3
        assert (stats.appended, stats.dropped, stats.size,
                stats.capacity) == (5, 2, 3, 3)
        # Append-only: survivors are the newest, still in order.
        assert [r.seq for r in log.records()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DecisionLog(capacity=0)

    def test_jsonl_round_trip(self):
        log = DecisionLog()
        log.append(_record(1, arm="u0:vector", explored=True))
        log.append(_record(2))
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["arm"] == "u0:vector"
        assert parsed[0]["explored"] is True
        assert parsed[1]["seq"] == 2
        # Stable key order across records.
        assert list(parsed[0]) == list(parsed[1])

    def test_replay_digest_ignores_wall_only(self):
        a, b, c = DecisionLog(), DecisionLog(), DecisionLog()
        a.append(_record(1, wall=0.5))
        b.append(_record(1, wall=99.0))  # wall differs: same digest
        c.append(_record(1, arm="u0:serial"))  # arm differs: new digest
        assert a.replay_digest() == b.replay_digest()
        assert a.replay_digest() != c.replay_digest()


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
class TestLearningPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"epsilon": -0.1},
        {"epsilon": 1.5},
        {"strategy": "thompson"},
        {"max_explore_fraction": 2.0},
        {"max_explore_per_key": -1},
        {"min_pulls": 0},
        {"penalty_factor": 0.5},
        {"granularities": ()},
        {"kernel_names": ()},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            LearningPolicy(**kwargs)

    def test_arm_grid(self):
        sel = _selector(LearningPolicy(granularities=(0, 64),
                                       kernel_names=("serial", "vector")))
        names = [a.name for a in sel.arms]
        assert names[0] == TREE_ARM_NAME
        assert set(names[1:]) == {
            "u0:serial", "u0:vector", "u64:serial", "u64:vector",
        }
        assert sel.arms[0].is_tree and not sel.arms[1].is_tree


# ----------------------------------------------------------------------
# Selector unit behaviour
# ----------------------------------------------------------------------
class TestSelectorCore:
    def test_epsilon_zero_always_tree(self):
        sel = _selector(LearningPolicy(epsilon=0.0))
        m = _matrix(1)
        for _ in range(20):
            d = sel.decide(m, "dg")
            assert d.arm.name == TREE_ARM_NAME
            assert not d.explored and not d.replan
            sel.observe(d, simulated=1e-4, wall=1e-3)
        stats = sel.stats()
        assert stats.explored == 0 and stats.decisions == 20
        assert stats.regret_seconds == 0.0

    def test_global_budget_cap_is_hard(self):
        policy = LearningPolicy(epsilon=1.0, max_explore_fraction=0.25,
                                max_explore_per_key=10_000)
        sel = _selector(policy)
        m = _matrix(2)
        for _ in range(80):
            d = sel.decide(m, "dg")
            sel.observe(d, simulated=1e-4, wall=1e-3)
        stats = sel.stats()
        assert stats.explored > 0
        assert stats.exploration_rate <= 0.25 + 1e-12

    def test_per_key_budget_cap(self):
        policy = LearningPolicy(epsilon=1.0, max_explore_fraction=1.0,
                                max_explore_per_key=3)
        sel = _selector(policy)
        small, large = _matrix(3, nrows=200), _matrix(3, nrows=6000)
        for _ in range(30):
            for m, dg in ((small, "s"), (large, "l")):
                d = sel.decide(m, dg)
                sel.observe(d, simulated=1e-4, wall=1e-3)
        per_key = {}
        for r in sel.log.records():
            if r.explored:
                per_key[r.key] = per_key.get(r.key, 0) + 1
        assert per_key and all(n <= 3 for n in per_key.values())

    def test_allow_explore_false_forces_exploit(self):
        sel = _selector(LearningPolicy(epsilon=1.0,
                                       max_explore_fraction=1.0))
        m = _matrix(4)
        for _ in range(10):
            d = sel.decide(m, "dg", allow_explore=False)
            assert d.arm.name == TREE_ARM_NAME and not d.explored
            sel.observe(d, simulated=1e-4, wall=1e-3)

    def test_epsilon_strategy_is_seeded_deterministic(self):
        def run():
            sel = _selector(LearningPolicy(epsilon=1.0, strategy="epsilon",
                                           max_explore_fraction=1.0,
                                           seed=7))
            m = _matrix(5)
            for _ in range(15):
                d = sel.decide(m, "dg")
                sel.observe(d, simulated=1e-4, wall=1e-3)
            return sel.log.replay_digest()

        assert run() == run()

    def test_priors_never_dethrone_tree_without_data(self):
        # Seeded priors may well say a candidate arm is faster; the
        # exploit choice must stay the tree until observations agree.
        sel = _selector(LearningPolicy(epsilon=0.0))
        m = _matrix(6)
        d = sel.decide(m, "dg")
        assert d.arm.name == TREE_ARM_NAME
        # Priors for every arm were seeded on first sight of the key
        # -- yet whatever they say, the exploit choice stays the tree.
        assert all(
            (d.key, a.name) in sel._priors for a in sel.arms
        )
        assert sel.decide(m, "dg").arm.name == TREE_ARM_NAME

    def test_observed_wins_switch_exploit_and_flag_replan(self):
        policy = LearningPolicy(epsilon=0.0, min_pulls=3)
        sel = _selector(policy)
        m = _matrix(7)
        d = sel.decide(m, "dg")
        sel.observe(d, simulated=5e-4, wall=1e-3)  # tree is slow
        fast = Arm("u0:vector", granularity=0, kernel="vector")
        synthetic = type(d)(
            digest="dg", key=d.key, arm=fast, explored=True,
            prior_seconds=1e-4, replan=False, features=d.features,
            model_version=0,
        )
        for _ in range(policy.min_pulls - 1):
            sel.observe(synthetic, simulated=1e-5, wall=1e-4)
            assert sel.decide(m, "dg").arm.name == TREE_ARM_NAME
        sel.observe(synthetic, simulated=1e-5, wall=1e-4)
        switched = sel.decide(m, "dg")
        assert switched.arm.name == "u0:vector"
        assert switched.replan  # committed arm changed for this digest
        assert not sel.decide(m, "dg").replan  # stable thereafter

    def test_fault_penalty_and_quarantine(self):
        policy = LearningPolicy(
            epsilon=1.0, max_explore_fraction=1.0,
            granularities=(0,), kernel_names=("vector",),
            fault_quarantine=2, penalty_factor=10.0,
        )
        sel = _selector(policy)
        m = _matrix(8)
        faults = 0
        for _ in range(40):
            d = sel.decide(m, "dg")
            if d.arm.name == "u0:vector":
                faults += 1
                sel.observe(d, simulated=1e-5, wall=1e-4, outcome="error")
            else:
                sel.observe(d, simulated=1e-4, wall=1e-3)
        # Quarantined after exactly ``fault_quarantine`` faults: the
        # only candidate arm is then excluded, so exploration stops.
        assert faults == 2
        snap = {a.arm: a for a in sel.stats().arms}
        st = snap["u0:vector"]
        assert st.faults == 2
        # Penalized mean: failure is priced at >= prior * penalty.
        prior = sel._priors[(sel.log.records()[0].key, "u0:vector")]
        assert st.mean_seconds >= prior * policy.penalty_factor

    def test_regret_accrues_only_on_exploration(self):
        # epsilon < 1 interleaves exploit pulls (cheap) with explored
        # pulls (10x): the explored cost over the best known mean is
        # exactly what the regret estimate must pick up.
        sel = _selector(LearningPolicy(epsilon=0.5,
                                       max_explore_fraction=1.0))
        m = _matrix(9)
        for _ in range(40):
            d = sel.decide(m, "dg")
            # Explored arms cost 10x: regret must notice.
            cost = 1e-3 if d.explored else 1e-4
            sel.observe(d, simulated=cost, wall=1e-3)
        stats = sel.stats()
        assert stats.explored > 0
        assert stats.regret_seconds > 0.0
        text = stats.describe()
        assert "regret estimate" in text and "arm tree" in text

    def test_install_model_rejects_unknown_arms(self):
        sel = _selector()
        with pytest.raises(ValueError, match="unknown arms"):
            sel.install_model(object(), ("tree", "u0:warp128"))

    def test_installed_model_drives_incumbent_and_replan(self):
        sel = _selector(LearningPolicy(epsilon=0.0))
        m = _matrix(10)
        first = sel.decide(m, "dg")
        assert first.arm.name == TREE_ARM_NAME
        sel.observe(first, simulated=1e-4, wall=1e-3)

        class Always:
            def __init__(self, idx):
                self.idx = idx

            def predict(self, X):
                return np.full(len(X), self.idx, dtype=np.int64)

        version = sel.install_model(Always(1), ("tree", "u0:subvector8"),
                                    provenance={"note": "test"})
        assert version == 1 and sel.model_version == 1
        assert sel.provenance[-1]["note"] == "test"
        swapped = sel.decide(m, "dg")
        assert swapped.arm.name == "u0:subvector8"
        assert swapped.replan and swapped.model_version == 1
        plan = sel._arm_plan(m, swapped.arm)
        assert plan.source == "learned"
        assert set(plan.bin_kernels.values()) == {"subvector8"}

    def test_learn_metrics_registered(self):
        registry = MetricsRegistry()
        sel = _selector(LearningPolicy(epsilon=1.0,
                                       max_explore_fraction=1.0),
                        registry=registry)
        m = _matrix(11)
        for _ in range(10):
            d = sel.decide(m, "dg")
            sel.observe(d, simulated=1e-4, wall=1e-3)
        text = to_prometheus_text(registry)
        for name in ("learn_decisions_total", "learn_pulls_total",
                     "learn_regret_seconds", "learn_exploration_rate",
                     "learn_model_version"):
            assert name in text


# ----------------------------------------------------------------------
# Epsilon-0 bit identity across backends (the opt-in property)
# ----------------------------------------------------------------------
def _drive(server, mats, vecs, repeats=3):
    out = []
    for _ in range(repeats):
        for m, x in zip(mats, vecs):
            out.append(server.submit(m, x))
    return out


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_epsilon_zero_bit_identical_to_static_server(backend):
    """Satellite property: learning with epsilon=0 is a no-op.

    Arm choice, simulated seconds and the result vector must match the
    static-tree server byte for byte on every execution backend.
    """
    mats = [gen.banded(400, bandwidth=3, seed=1),
            gen.power_law_graph(400, seed=2),
            _matrix(3, nrows=400)]
    rng = np.random.default_rng(0)
    vecs = [rng.standard_normal(m.ncols) for m in mats]
    sharding = ShardingPolicy(n_shards=2, backend=backend)
    static = SpMVServer(None, sharding=sharding)
    learned = SpMVServer(None, sharding=sharding,
                         learning=LearningPolicy(epsilon=0.0))
    try:
        a = _drive(static, mats, vecs)
        b = _drive(learned, mats, vecs)
    finally:
        static.close()
        learned.close()
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.y.tobytes() == rb.y.tobytes()
        assert ra.seconds == rb.seconds
        assert ra.n_dispatches == rb.n_dispatches
        assert ra.arm is None and not ra.explored  # learning unset
        assert rb.arm == TREE_ARM_NAME and not rb.explored
    stats = learned.stats().learning
    assert stats is not None and stats.explored == 0
    assert learned.selector.log.stats().appended == len(b)


def test_learning_unset_leaves_result_fields_defaulted():
    server = SpMVServer(None)
    m = _matrix(12)
    r = server.submit(m, np.ones(m.ncols))
    assert r.arm is None and r.explored is False
    assert server.stats().learning is None
    assert server.selector is None
    assert "online learning" not in server.stats().describe()


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
class TestServerIntegration:
    def test_explored_arms_stay_correct_and_stamped(self):
        server = SpMVServer(
            None,
            learning=LearningPolicy(epsilon=0.8, max_explore_fraction=0.5,
                                    seed=1),
        )
        m = _matrix(13)
        x = np.random.default_rng(1).standard_normal(m.ncols)
        reference = m.to_dense() @ x
        explored = 0
        for _ in range(25):
            r = server.submit(m, x)
            assert r.arm is not None
            explored += bool(r.explored)
            np.testing.assert_allclose(r.y, reference, rtol=1e-10)
        assert explored > 0
        stats = server.stats().learning
        assert stats.explored == explored
        assert stats.exploration_rate <= 0.5 + 1e-12
        assert "online learning" in server.stats().describe()

    @pytest.mark.parametrize("sharding", [None, "inline"],
                             ids=["unsharded", "inline"])
    def test_each_request_is_fingerprinted_once(self, monkeypatch, sharding):
        server = SpMVServer(
            None,
            learning=LearningPolicy(epsilon=0.0),
            sharding=(ShardingPolicy(n_shards=2, backend=sharding)
                      if sharding is not None else None),
        )
        calls = []
        fingerprint = server._fingerprints.fingerprint

        def counting(matrix):
            calls.append(matrix)
            return fingerprint(matrix)

        monkeypatch.setattr(server._fingerprints, "fingerprint", counting)
        m = _matrix(15)
        x = np.ones(m.ncols)
        with server:
            server.submit(m, x)
            assert len(calls) == 1
            server.submit_batch(m, np.ones((m.ncols, 3)))
            assert len(calls) == 2
            server.submit(gen.banded(300, seed=15), x)
            assert len(calls) == 3

    def test_arm_change_replans_through_invalidate(self):
        server = SpMVServer(
            None,
            learning=LearningPolicy(epsilon=1.0, max_explore_fraction=1.0,
                                    seed=0),
        )
        m = _matrix(14)
        x = np.ones(m.ncols)
        arms = {server.submit(m, x).arm for _ in range(20)}
        assert len(arms) > 1  # exploration actually changed the plan
        # Every arm change rode the invalidate path: the cache never
        # serves a plan built under a different arm, so hits + misses
        # must still account for every request.
        cs = server.stats().cache
        assert cs.hits + cs.misses == 20
        assert cs.misses >= len(arms)

    def test_deadline_requests_never_explore(self):
        server = SpMVServer(
            None,
            learning=LearningPolicy(epsilon=1.0, max_explore_fraction=1.0),
        )
        m = _matrix(15)
        x = np.ones(m.ncols)
        for _ in range(15):
            r = server.submit(m, x, deadline=60.0)
            assert r.arm == TREE_ARM_NAME and not r.explored
        assert server.stats().learning.explored == 0

    def test_admitted_deadline_requests_never_explore(self):
        policy = AdmissionPolicy(tenants={
            "t0": TenantConfig(priority="latency"),
        })
        server = SpMVServer(
            None, admission=policy,
            learning=LearningPolicy(epsilon=1.0, max_explore_fraction=1.0),
        )
        m = _matrix(16)
        x = np.ones(m.ncols)
        for _ in range(10):
            r = server.submit(m, x, tenant="t0", deadline=60.0)
            assert not r.explored
        # The same tenant without a deadline may explore again.
        assert server.stats().learning.explored == 0
        explored = sum(
            server.submit(m, x, tenant="t0").explored for _ in range(10)
        )
        assert explored > 0

    def test_coalesced_dispatches_are_exploit_only(self):
        server = SpMVServer(
            None,
            scheduler=CoalescePolicy(max_batch=4, max_wait_seconds=0.05),
            learning=LearningPolicy(epsilon=1.0, max_explore_fraction=1.0),
        )
        m = _matrix(17)
        rng = np.random.default_rng(2)
        xs = [rng.standard_normal(m.ncols) for _ in range(8)]
        dense = m.to_dense()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda x: server.submit(m, x), xs
                ))
        finally:
            server.close()
        for x, r in zip(xs, results):
            np.testing.assert_allclose(r.y, dense @ x, rtol=1e-10)
            if r.coalesced_width > 1:
                # Group dispatches are bound to the no-explore path.
                assert not r.explored

    def test_tracing_server_records_learn_spans_and_classes(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            server = SpMVServer(
                None,
                tracing=TracingPolicy(slo=SLOTarget(p99=10.0)),
                learning=LearningPolicy(epsilon=0.0),
            )
            m = _matrix(18)
            server.submit(m, np.ones(m.ncols))
        finally:
            set_registry(previous)
        names = [s.name for s in server.trace_recorder.records()]
        assert "learn.decide" in names
        decide = next(s for s in server.trace_recorder.records()
                      if s.name == "learn.decide")
        assert decide.attrs["arm"] == TREE_ARM_NAME
        assert decide.attrs["explored"] is False
        # Satellite: per-class monitors exist on every tracing server
        # now, not only behind the admission front door.
        health = server.health_snapshot()
        assert set(health["classes"]) == {"latency", "batch"}
        assert health["classes"]["latency"]["observed"] == 1

    def test_server_replay_digest_is_deterministic(self):
        def run():
            server = SpMVServer(
                None,
                learning=LearningPolicy(epsilon=0.7,
                                        max_explore_fraction=0.5, seed=5),
            )
            mats = [gen.banded(300, bandwidth=4, seed=1),
                    gen.power_law_graph(300, seed=2)]
            for i in range(20):
                m = mats[i % 2]
                server.submit(m, np.ones(m.ncols))
            return (server.selector.log.replay_digest(),
                    server.stats().learning.explored)

        assert run() == run()


# ----------------------------------------------------------------------
# A new key is planned once: the seeding plan serves its own request
# ----------------------------------------------------------------------
def _count_cold_path(monkeypatch):
    """Every tuner plan (with the matrix it planned) and every gather-
    locality pass from here on, through each module holding the name."""
    import sys

    from repro.core.framework import AutoTuner
    from repro.device import memory

    plans, passes = [], []
    plan, locality = AutoTuner._plan_unspanned, memory.gather_locality

    def counting_plan(tuner, matrix):
        plans.append((matrix, plan(tuner, matrix)))
        return plans[-1][1]

    def counting_locality(matrix, **kwargs):
        passes.append(matrix)
        return locality(matrix, **kwargs)

    monkeypatch.setattr(AutoTuner, "_plan_unspanned", counting_plan)
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "gather_locality", None) is locality):
            monkeypatch.setattr(module, "gather_locality", counting_locality)
    return plans, passes


def _cold_case():
    tuner = _tuner("tree")
    matrix = _prediction_matrices("tenant_mix")[4]
    x = np.random.default_rng(4).standard_normal(matrix.ncols)
    return tuner, matrix, x


def test_cold_submit_runs_the_plan_that_seeded_its_key(monkeypatch):
    tuner, matrix, x = _cold_case()
    with SpMVServer(tuner) as static:
        expected = static.submit(matrix, x)
    plans, passes = _count_cold_path(monkeypatch)
    with SpMVServer(tuner, learning=LearningPolicy(epsilon=0.0)) as server:
        result = server.submit(matrix, x)
    assert len(plans) == 1 and len(passes) <= 2
    assert result.arm == TREE_ARM_NAME and not result.cache_hit
    assert result.plan is plans[0][1]
    assert result.y.tobytes() == expected.y.tobytes()
    assert repr(result.seconds) == repr(expected.seconds)


def test_explored_first_decision_does_not_run_the_seeded_plan(monkeypatch):
    tuner, matrix, x = _cold_case()
    plans, _ = _count_cold_path(monkeypatch)
    policy = LearningPolicy(epsilon=1.0, max_explore_fraction=1.0)
    with SpMVServer(tuner, learning=policy) as server:
        result = server.submit(matrix, x)
        arm = server.selector._arm_by_name[result.arm]
    assert result.explored and not arm.is_tree
    assert len(plans) == 1 and result.plan is not plans[0][1]
    assert result.plan.source == "learned"
    with SpMVServer(
            planner=lambda m: OnlineSelector._arm_plan(m, arm)) as static:
        expected = static.submit(matrix, x)
    assert result.y.tobytes() == expected.y.tobytes()
    assert repr(result.seconds) == repr(expected.seconds)


def test_sharded_learning_plans_each_shard_itself(monkeypatch):
    tuner, matrix, x = _cold_case()
    sharding = ShardingPolicy(n_shards=2)
    with SpMVServer(tuner, sharding=sharding) as plain:
        expected = plain.submit(matrix, x)
    plans, _ = _count_cold_path(monkeypatch)
    with SpMVServer(tuner, sharding=sharding,
                    learning=LearningPolicy(epsilon=0.0)) as server:
        result = server.submit(matrix, x)
    planned = [m for m, _ in plans]
    assert planned[0] is matrix and len(planned) == 3
    assert all(shard is not matrix for shard in planned[1:])
    assert sum(shard.nrows for shard in planned[1:]) == matrix.nrows
    assert result.y.tobytes() == expected.y.tobytes()
    assert repr(result.seconds) == repr(expected.seconds)


# ----------------------------------------------------------------------
# Retrain pipeline
# ----------------------------------------------------------------------
class TestRetrain:
    def test_skips_below_min_records(self):
        sel = _selector()
        report = retrain(sel, min_records=5)
        assert not report.swapped and report.version == 0
        assert "min_records" in report.skipped_reason
        assert "skipped" in report.describe()
        assert sel.model_version == 0

    def test_skips_single_winning_arm(self):
        sel = _selector()
        for i in range(25):
            sel.log.append(_record(i, key="k", arm="tree"))
        report = retrain(sel, min_records=20)
        assert not report.swapped
        assert "one winning arm" in report.skipped_reason

    def test_error_records_are_excluded(self):
        sel = _selector()
        for i in range(25):
            sel.log.append(_record(i, outcome="error"))
        report = retrain(sel, min_records=20)
        assert not report.swapped and report.n_used == 0

    def test_swap_installs_versioned_model(self):
        sel = _selector()
        small = extract_features(_matrix(20, nrows=200))
        large = extract_features(_matrix(20, nrows=6000))
        fs = tuple(float(v) for v in small.to_vector())
        fl = tuple(float(v) for v in large.to_vector())
        ks, kl = feature_bucket(small), feature_bucket(large)
        seq = 0
        for _ in range(15):  # small matrices: the tree arm wins
            seq += 1
            sel.log.append(_record(seq, key=ks, arm="tree",
                                   simulated=1e-5, features=fs))
            seq += 1
            sel.log.append(_record(seq, key=ks, arm="u0:vector",
                                   simulated=9e-5, features=fs))
            seq += 1  # large matrices: a coarse-bin arm wins
            sel.log.append(_record(seq, key=kl, arm="u50:subvector8",
                                   simulated=1e-5, features=fl))
            seq += 1
            sel.log.append(_record(seq, key=kl, arm="tree",
                                   simulated=9e-5, features=fl))
        report = retrain(sel, min_records=20, note="live")
        assert report.swapped and report.version == 1
        assert set(report.class_names) == {"tree", "u50:subvector8"}
        assert report.label_counts == {"tree": 30, "u50:subvector8": 30}
        assert sel.model_version == 1
        prov = sel.provenance[-1]
        assert prov["source"] == "retrain" and prov["note"] == "live"
        assert prov["label_counts"] == report.label_counts
        assert "retrained to version 1" in report.describe()
        # The swapped tree now steers the incumbent per bucket.
        assert sel.decide(_matrix(21, nrows=6000),
                          "big").arm.name == "u50:subvector8"
        assert sel.decide(_matrix(21, nrows=200),
                          "small").arm.name == "tree"

    def test_end_to_end_retrain_from_live_traffic(self):
        server = SpMVServer(
            None,
            learning=LearningPolicy(epsilon=0.9, max_explore_fraction=0.5,
                                    seed=3),
        )
        mats = [gen.banded(500, bandwidth=3, seed=1),
                gen.power_law_graph(500, seed=2)]
        for i in range(40):
            m = mats[i % 2]
            server.submit(m, np.ones(m.ncols))
        report = retrain(server.selector, min_records=10)
        # The drifty mixed workload yields >= 2 winning arms with this
        # seed; the swap must version up and keep serving correctly.
        assert report.swapped and server.selector.model_version == 1
        m = mats[0]
        r = server.submit(m, np.ones(m.ncols))
        np.testing.assert_allclose(r.y, m.to_dense() @ np.ones(m.ncols),
                                   rtol=1e-10)


# ----------------------------------------------------------------------
# Front-door exploration gate
# ----------------------------------------------------------------------
class TestExplorationGate:
    @staticmethod
    def _ticket(deadline):
        return AdmissionTicket(tenant="t", priority="latency",
                               admitted_at=0.0, deadline=deadline, seq=1)

    def test_gate_semantics(self):
        door = FrontDoor(AdmissionPolicy())
        assert door.exploration_allowed(None)
        assert door.exploration_allowed(self._ticket(None))
        assert not door.exploration_allowed(self._ticket(12.5))
