"""Unit tests for the deployment configuration helpers."""

import pytest

from repro.api import DeploymentSpec
from repro.common.config import (
    ClusterConfig,
    NodeGroup,
    PerformanceModel,
    ProtocolTuning,
    SystemConfig,
    plan_clusters,
    plan_clusters_grouped,
)
from repro.common.errors import ConfigurationError
from repro.common.types import ClusterId, FaultModel, NodeId


class TestClusterConfig:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(ClusterId(0), (NodeId(0), NodeId(1)), FaultModel.CRASH, f=1)
        with pytest.raises(ConfigurationError):
            ClusterConfig(ClusterId(0), tuple(NodeId(i) for i in range(3)), FaultModel.BYZANTINE, f=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(ClusterId(0), (NodeId(0), NodeId(0), NodeId(1)), FaultModel.CRASH, f=1)

    def test_quorums(self):
        crash = ClusterConfig(ClusterId(0), tuple(NodeId(i) for i in range(3)), FaultModel.CRASH, f=1)
        byz = ClusterConfig(ClusterId(1), tuple(NodeId(i + 3) for i in range(4)), FaultModel.BYZANTINE, f=1)
        assert crash.intra_quorum == 2 and crash.cross_quorum == 2
        assert byz.intra_quorum == 3 and byz.cross_quorum == 3

    def test_primary_rotation(self):
        cluster = ClusterConfig(ClusterId(0), tuple(NodeId(i) for i in range(3)), FaultModel.CRASH, f=1)
        assert cluster.primary == 0
        assert cluster.primary_for_view(1) == 1
        assert cluster.primary_for_view(3) == 0


class TestSystemConfig:
    def test_build_paper_crash_setup(self):
        # Figure 6: 12 crash-only nodes, four clusters of three.
        config = SystemConfig.build(4, FaultModel.CRASH)
        assert config.num_clusters == 4
        assert config.num_nodes == 12
        assert all(cluster.size == 3 for cluster in config.clusters)

    def test_build_paper_byzantine_setup(self):
        # Figure 7: 16 Byzantine nodes, four clusters of four.
        config = SystemConfig.build(4, FaultModel.BYZANTINE)
        assert config.num_nodes == 16
        assert all(cluster.size == 4 for cluster in config.clusters)

    def test_node_ids_are_disjoint_and_complete(self):
        config = SystemConfig.build(3, FaultModel.BYZANTINE)
        assert sorted(config.all_node_ids) == list(range(12))

    def test_cluster_lookup(self):
        config = SystemConfig.build(2, FaultModel.CRASH)
        assert config.cluster(ClusterId(1)).cluster_id == 1
        with pytest.raises(ConfigurationError):
            config.cluster(ClusterId(9))

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigurationError):
            SystemConfig.build(0, FaultModel.CRASH)


class TestArchiveNeedsCheckpointing:
    """Only checkpoint GC fills an archive: one without it would audit nothing and pass."""

    def test_spec_without_checkpointing_is_refused(self):
        with pytest.raises(ConfigurationError, match="archive_path.*checkpoint_interval"):
            DeploymentSpec(archive=":memory:").resolve()
        DeploymentSpec(archive=":memory:", checkpoint_interval=16).resolve()


class TestClusterPlanning:
    def test_plain_formula(self):
        assert plan_clusters(12, 1, FaultModel.CRASH) == 4
        assert plan_clusters(16, 1, FaultModel.BYZANTINE) == 4
        assert plan_clusters(23, 3, FaultModel.BYZANTINE) == 2

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            plan_clusters(2, 1, FaultModel.CRASH)

    def test_paper_grouped_example(self):
        # Section 3.4: n=23, f=3 with groups A (n=7, f=2) and B (n=16, f=1)
        # yields 1 + 4 = 5 clusters instead of 2.
        groups = [NodeGroup("A", 7, 2), NodeGroup("B", 16, 1)]
        plan = plan_clusters_grouped(groups, FaultModel.BYZANTINE)
        assert plan == {"A": 1, "B": 4}
        assert sum(plan.values()) == 5

    def test_grouped_requires_some_capacity(self):
        with pytest.raises(ConfigurationError):
            plan_clusters_grouped([NodeGroup("tiny", 2, 1)], FaultModel.BYZANTINE)


class TestPerformanceModel:
    def test_tuning_defaults(self):
        tuning = ProtocolTuning()
        assert tuning.use_super_primary is True
        # batch_size 1 keeps the batching pipeline disarmed (the paper's
        # one-transaction-per-block default); pipeline_depth only binds
        # once batching is armed.
        assert tuning.batch_size == 1
        assert tuning.pipeline_depth == 32


NAN = float("nan")


class TestTimingIsCheckedWhenBuilt:
    """A NaN or negative timing field used to run: NaN delays or CPU costs
    committed nothing with ``ok`` set, a negative delay delivered messages
    before they left, and a NaN view-change timer forked a crash run."""

    @pytest.mark.parametrize(
        "field",
        ["intra_cluster_latency", "cross_cluster_latency", "client_latency", "latency_jitter"],
    )
    @pytest.mark.parametrize("value", [NAN, -1e-3], ids=["nan", "negative"])
    def test_link_delays_refuse_nan_and_negative(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PerformanceModel(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "message_cpu",
            "signature_verify_cpu",
            "signature_sign_cpu",
            "execution_cpu",
            "append_cpu",
        ],
    )
    @pytest.mark.parametrize("value", [NAN, -1e-6], ids=["nan", "negative"])
    def test_cpu_costs_refuse_nan_and_negative(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PerformanceModel(**{field: value})

    @pytest.mark.parametrize("field", ["view_change_timeout", "conflict_retry_delay"])
    @pytest.mark.parametrize("value", [NAN, 0.0, -0.5], ids=["nan", "zero", "negative"])
    def test_protocol_timers_refuse_nan_and_non_positive(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ProtocolTuning(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("checkpoint_interval", -1), ("batch_size", 0), ("batch_size", -1),
         ("pipeline_depth", 0), ("max_conflict_retries", -1)],
    )
    def test_integer_fields_below_their_least_value_are_refused(self, field, value):
        """Each ran silently before: interval -1 checkpointed every slot, a
        batch size or depth below one ran as one."""
        with pytest.raises(ConfigurationError, match=field):
            ProtocolTuning(**{field: value})

    def test_zero_costs_and_integer_knobs_are_accepted(self):
        free = PerformanceModel(message_cpu=0.0, latency_jitter=0.0, intra_cluster_latency=0.0)
        assert free.message_cpu == 0.0
        least = ProtocolTuning(checkpoint_interval=0, batch_size=1, pipeline_depth=1,
                               max_conflict_retries=0)
        assert (least.checkpoint_interval, least.batch_size, least.pipeline_depth) == (0, 1, 1)
