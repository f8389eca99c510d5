"""Tests for the distributed indexing driver."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.errors import KeyGenerationError
from repro.hdk.indexer import PeerIndexer
from repro.index.global_index import GlobalKeyIndex, KeyStatus
from repro.indexing import IndexingPipeline
from repro.net.network import P2PNetwork


PARAMS = HDKParameters(df_max=2, window_size=4, s_max=3, ff=1_000, fr=1)


def make_world(peer_docs: dict[str, list[list[str]]], params=PARAMS):
    """Build network + global index + one PeerIndexer per peer."""
    network = P2PNetwork()
    global_index = GlobalKeyIndex(network, params)
    indexers = []
    next_doc_id = 0
    for peer_name, docs in peer_docs.items():
        network.add_peer(peer_name)
        collection = DocumentCollection()
        for tokens in docs:
            collection.add(
                Document(doc_id=next_doc_id, tokens=tuple(tokens))
            )
            next_doc_id += 1
        indexers.append(
            PeerIndexer(peer_name, collection, global_index, params)
        )
    return network, global_index, indexers


def key(*terms):
    return frozenset(terms)


class TestSinglePeer:
    def test_round_one_inserts_all_terms(self):
        _, gi, indexers = make_world({"p0": [["a", "b"], ["c"]]})
        indexers[0].publish_statistics()
        statuses = indexers[0].run_round(1)
        assert set(statuses) == {key("a"), key("b"), key("c")}
        assert all(
            s is KeyStatus.DISCRIMINATIVE for s in statuses.values()
        )

    def test_frequent_term_becomes_ndk(self):
        docs = [["a", "x"], ["a", "y"], ["a", "z"]]  # df(a)=3 > df_max=2
        _, gi, indexers = make_world({"p0": docs})
        indexers[0].publish_statistics()
        statuses = indexers[0].run_round(1)
        assert statuses[key("a")] is KeyStatus.NON_DISCRIMINATIVE

    def test_round_two_expands_only_ndk(self):
        docs = [["a", "b"], ["a", "c"], ["a", "d"]]
        _, gi, indexers = make_world({"p0": docs})
        indexers[0].publish_statistics()
        indexers[0].run_round(1)
        statuses = indexers[0].run_round(2)
        # Only 'a' is NDK; pairs need two NDK terms -> no candidates.
        assert statuses == {}

    def test_local_ndk_payload_truncated(self):
        # df(a)=4 local > df_max=2: the peer publishes only top-2.
        docs = [["a"], ["a"], ["a"], ["a"]]
        _, gi, indexers = make_world({"p0": docs})
        indexers[0].publish_statistics()
        indexers[0].run_round(1)
        assert indexers[0].report.inserted_postings_by_size[1] == 2

    def test_report_accounting(self):
        _, gi, indexers = make_world({"p0": [["a", "b"]]})
        indexers[0].publish_statistics()
        indexers[0].run_round(1)
        report = indexers[0].report
        assert report.candidate_keys_by_size[1] == 2
        assert report.inserted_postings_by_size[1] == 2
        assert report.total_candidate_keys == 2
        assert report.total_inserted_postings == 2


class TestCollaborativeProtocol:
    def test_global_ndk_through_aggregation(self):
        # Each peer sees df(a)=2 locally (DK), but globally df(a)=4 > 2.
        world = {
            "p0": [["a", "b"], ["a", "c"]],
            "p1": [["a", "d"], ["a", "e"]],
        }
        _, gi, indexers = make_world(world)
        IndexingPipeline().build(indexers, PARAMS)
        entry = gi.lookup("p0", key("a"))
        assert entry.status is KeyStatus.NON_DISCRIMINATIVE
        assert entry.global_df == 4

    def test_reconciliation_updates_early_inserters(self):
        # p0 inserts 'a' first and sees DK; p1's insert flips it to NDK.
        # After the round, p0 must know 'a' is NDK for its round 2.
        world = {
            "p0": [["a", "b"], ["a", "c"]],
            "p1": [["a", "d"], ["a", "e"]],
        }
        _, gi, indexers = make_world(world)
        IndexingPipeline().build(indexers, PARAMS)
        assert indexers[0].known_ndk_count(1) >= 1

    def test_expansion_generates_multiterm_hdks(self):
        # 'a' and 'b' co-occur often enough to be NDK singles; the pair
        # {a, b} is rarer and becomes an indexed key.
        world = {
            "p0": [["a", "b"], ["a", "x"], ["b", "y"]],
            "p1": [["a", "z"], ["b", "w"], ["a", "b"]],
        }
        _, gi, indexers = make_world(world)
        IndexingPipeline().build(indexers, PARAMS)
        entry = gi.lookup("p0", key("a", "b"))
        assert entry is not None
        assert entry.global_df == 2
        assert entry.status is KeyStatus.DISCRIMINATIVE

    def test_empty_indexer_list_rejected(self):
        with pytest.raises(KeyGenerationError):
            IndexingPipeline().build([], PARAMS)

    def test_reports_returned_per_peer(self):
        world = {"p0": [["a"]], "p1": [["b"]]}
        _, gi, indexers = make_world(world)
        reports = IndexingPipeline().build(indexers, PARAMS)
        assert [r.peer_name for r in reports] == ["p0", "p1"]

    def test_learn_status_external(self):
        _, gi, indexers = make_world({"p0": [["a"]]})
        indexer = indexers[0]
        indexer.learn_status(key("q"), KeyStatus.NON_DISCRIMINATIVE)
        assert indexer.known_ndk_count(1) == 1
