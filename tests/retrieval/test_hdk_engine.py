"""Tests for the HDK retrieval engine (query-lattice walk)."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.corpus.querylog import Query
from repro.hdk.indexer import PeerIndexer
from repro.index.global_index import GlobalKeyIndex
from repro.indexing import IndexingPipeline
from repro.net.accounting import Phase
from repro.net.network import P2PNetwork
from repro.retrieval.hdk_engine import HDKRetrievalEngine


PARAMS = HDKParameters(df_max=2, window_size=4, s_max=3, ff=1_000, fr=1)


def build_world(docs: list[tuple[str, ...]], params=PARAMS, peers=2):
    network = P2PNetwork()
    global_index = GlobalKeyIndex(network, params)
    collections = [DocumentCollection() for _ in range(peers)]
    for i, tokens in enumerate(docs):
        collections[i % peers].add(Document(doc_id=i, tokens=tokens))
    indexers = []
    for p in range(peers):
        name = f"p{p}"
        network.add_peer(name)
        indexers.append(
            PeerIndexer(name, collections[p], global_index, params)
        )
    IndexingPipeline().build(indexers, params)
    return network, global_index, HDKRetrievalEngine(global_index, params)


# 'a' appears in 5 docs (NDK at df_max=2); 'b' in 3 (NDK); the pair
# {a, b} co-occurs in 2 docs (intrinsically discriminative HDK).
DOCS = [
    ("a", "b", "x1"),
    ("a", "b", "x2"),
    ("a", "x3", "x4"),
    ("a", "x5", "x6"),
    ("a", "x7", "x8"),
    ("b", "x9", "x10"),
]


def q(*terms):
    return Query(query_id=0, terms=tuple(sorted(terms)))


class TestLatticeWalk:
    def test_single_dk_term_not_expanded(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("x1", "x9"))
        # Both terms are DKs: 2 lookups, no expansion to the pair.
        assert result.keys_looked_up == 2
        assert result.dk_keys == 2
        assert result.ndk_keys == 0

    def test_ndk_pair_expanded(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"))
        # a and b are NDK -> the pair {a,b} is also looked up: 3 lookups.
        assert result.keys_looked_up == 3
        assert result.ndk_keys == 2
        assert result.dk_keys == 1  # {a,b} is an HDK

    def test_mixed_query_expansion_rule(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "x1"))
        # a is NDK, x1 is DK: the pair {a,x1} has a DK sub-key, so it is
        # not looked up (subsumption): 2 lookups total.
        assert result.keys_looked_up == 2

    def test_absent_term_not_expanded(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "zzz"))
        assert result.keys_looked_up == 2
        assert result.keys_found == 1

    def test_nk_bound(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b", "x1"))
        assert result.keys_looked_up <= 2**3 - 1

    def test_traffic_bounded_by_nk_dfmax(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"))
        assert (
            result.postings_transferred
            <= result.keys_looked_up * PARAMS.df_max
        )

    def test_retrieval_phase_accounting(self):
        network, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"))
        assert (
            network.accounting.postings(Phase.RETRIEVAL)
            == result.postings_transferred
        )


class TestResults:
    def test_conjunctive_docs_rank_first(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"), k=10)
        assert result.results[0].doc_id in (0, 1)

    def test_results_within_k(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"), k=2)
        assert len(result.results) <= 2

    def test_hdk_key_recovers_conjunctive_answers(self):
        # Docs 0 and 1 contain both a and b; the HDK {a,b} has their full
        # posting list, so both must be in the result set.
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("a", "b"), k=10)
        ids = {r.doc_id for r in result.results}
        assert {0, 1} <= ids

    def test_empty_query_result_for_unknown_terms(self):
        _, _, engine = build_world(DOCS)
        result = engine.search("p0", q("zz1", "zz2"))
        assert result.results == []
        assert result.keys_found == 0

    def test_invalid_k(self):
        _, _, engine = build_world(DOCS)
        with pytest.raises(Exception):
            engine.search("p0", q("a"), k=0)


class TestQueryLargerThanSmax:
    def test_lattice_depth_capped(self):
        params = HDKParameters(
            df_max=2, window_size=6, s_max=2, ff=1_000, fr=1
        )
        docs = [
            ("a", "b", "c", "d"),
            ("a", "b", "c", "e"),
            ("a", "b", "f", "g"),
            ("a", "h", "c", "i"),
            ("b", "j", "c", "k"),
        ]
        _, _, engine = build_world(docs, params=params)
        result = engine.search("p0", q("a", "b", "c"))
        # No subset larger than s_max=2 may be looked up:
        # max lookups = C(3,1) + C(3,2) = 6.
        assert result.keys_looked_up <= 6
