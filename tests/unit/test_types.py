"""Unit tests for the core identifier types and fault-model arithmetic."""

import pytest

from repro.common.types import FaultModel, node_label


class TestFaultModel:
    def test_crash_cluster_size(self):
        assert FaultModel.CRASH.min_cluster_size(1) == 3
        assert FaultModel.CRASH.min_cluster_size(2) == 5
        assert FaultModel.CRASH.min_cluster_size(0) == 1

    def test_byzantine_cluster_size(self):
        assert FaultModel.BYZANTINE.min_cluster_size(1) == 4
        assert FaultModel.BYZANTINE.min_cluster_size(3) == 10

    def test_cross_shard_quorums(self):
        # Algorithm 1 needs f + 1 accepts per cluster, Algorithm 2 needs 2f + 1.
        assert FaultModel.CRASH.quorum_size(1) == 2
        assert FaultModel.BYZANTINE.quorum_size(1) == 3
        assert FaultModel.CRASH.quorum_size(2) == 3
        assert FaultModel.BYZANTINE.quorum_size(2) == 5

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            FaultModel.CRASH.min_cluster_size(-1)
        with pytest.raises(ValueError):
            FaultModel.BYZANTINE.quorum_size(-2)

    def test_cluster_size_property_uses_f_equal_one(self):
        assert FaultModel.CRASH.cluster_size == 3
        assert FaultModel.BYZANTINE.cluster_size == 4


def test_node_label_formats():
    assert node_label(3) == "n3"
    assert node_label(3, 1) == "n3@p1"
