"""Tests for the super-peer topology layer (clustering + maintenance)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, NetworkError, PeerNotFoundError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.net.node_id import hash_to_id
from repro.overlay import SuperPeerTopology


def make_network(num_peers: int) -> P2PNetwork:
    network = P2PNetwork()
    for i in range(num_peers):
        network.add_peer(f"peer-{i:03d}")
    return network


class TestClustering:
    def test_cluster_count_is_ceil_n_over_fanout(self):
        network = make_network(10)
        for fanout in (1, 3, 4, 10, 64):
            topology = SuperPeerTopology(network, fanout=fanout)
            assert len(topology.clusters) == math.ceil(10 / fanout)

    def test_every_peer_assigned_exactly_once(self):
        network = make_network(13)
        topology = SuperPeerTopology(network, fanout=4)
        seen: list[int] = []
        for cluster in topology.clusters:
            seen.extend(cluster.members)
        assert sorted(seen) == sorted(network.peer_ids())
        assert len(seen) == len(set(seen))

    def test_members_are_consecutive_ring_runs(self):
        network = make_network(12)
        topology = SuperPeerTopology(network, fanout=5)
        flat = [m for c in topology.clusters for m in c.members]
        assert flat == sorted(network.peer_ids())

    def test_super_peer_is_lowest_member(self):
        network = make_network(9)
        topology = SuperPeerTopology(network, fanout=3)
        for cluster in topology.clusters:
            assert cluster.super_peer == min(cluster.members)
            assert cluster.super_peer in cluster.members

    def test_cluster_of_peer_round_trips(self):
        network = make_network(11)
        topology = SuperPeerTopology(network, fanout=4)
        for peer_id in network.peer_ids():
            cluster = topology.cluster_of_peer(peer_id)
            assert peer_id in cluster.members
            assert topology.super_peer_of(peer_id) == cluster.super_peer

    def test_home_cluster_contains_responsible_peer(self):
        # The key-range affinity invariant the router relies on: the
        # responsible peer of any key id is a member of its home cluster.
        network = make_network(17)
        topology = SuperPeerTopology(network, fanout=5)
        for i in range(200):
            key_id = hash_to_id(f"probe-{i}")
            owner = network.overlay.responsible_peer(key_id)
            assert owner in topology.home_cluster(key_id).members

    def test_unknown_peer_rejected(self):
        topology = SuperPeerTopology(make_network(3), fanout=2)
        with pytest.raises(PeerNotFoundError):
            topology.cluster_of_peer(12345)

    def test_fanout_validation(self):
        with pytest.raises(ConfigurationError):
            SuperPeerTopology(make_network(2), fanout=0)

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkError):
            SuperPeerTopology(P2PNetwork(), fanout=4)


class TestMaintenanceAccounting:
    def test_build_traffic_is_maintenance_only(self):
        network = make_network(8)
        with network.accounting.measure() as window:
            SuperPeerTopology(network, fanout=3)
        delta = window.delta
        assert delta.maintenance_postings == 0  # registrations carry none
        assert delta.messages_by_phase.get(Phase.MAINTENANCE, 0) > 0
        assert delta.messages_by_phase.get(Phase.INDEXING, 0) == 0
        assert delta.messages_by_phase.get(Phase.RETRIEVAL, 0) == 0

    def test_build_message_shapes(self):
        network = make_network(8)
        with network.accounting.measure() as window:
            SuperPeerTopology(network, fanout=3)
        by_kind = window.delta.messages_by_kind
        # 3 clusters of (3, 3, 2): non-super members register once each,
        # and each of the 3 super-peers updates the other 2.
        assert by_kind[MessageKind.CLUSTER_JOIN] == 8 - 3
        assert by_kind[MessageKind.ROUTING_UPDATE] == 3 * 2

    def test_rebuild_recounts_membership(self):
        network = make_network(6)
        topology = SuperPeerTopology(network, fanout=2)
        assert topology.describe()["rebuilds"] == 1
        network.add_peer("peer-joiner")
        # No router installed: rebuild is the caller's responsibility.
        topology.rebuild()
        assert topology.describe()["rebuilds"] == 2
        joiner = network.id_of("peer-joiner")
        assert joiner in topology.cluster_of_peer(joiner).members

    def test_describe_counts(self):
        topology = SuperPeerTopology(make_network(7), fanout=3)
        info = topology.describe()
        assert info["peers"] == 7
        assert info["clusters"] == 3
        assert info["fanout"] == 3
        assert info["rebuilds"] == 1
