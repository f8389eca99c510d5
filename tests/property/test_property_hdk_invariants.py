"""Property-based tests for HDK model invariants on random mini-corpora.

These generate small random document collections, run the full distributed
indexing protocol, and assert the paper's structural invariants hold for
*every* generated world — the strongest correctness evidence in the suite.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.hdk.generator import LocalHDKGenerator
from repro.hdk.indexer import PeerIndexer
from repro.index.global_index import GlobalKeyIndex, KeyStatus
from repro.indexing import IndexingPipeline
from repro.net.network import P2PNetwork


PARAMS = HDKParameters(df_max=2, window_size=4, s_max=3, ff=10_000, fr=1)

# Tiny vocabulary forces heavy term reuse -> non-trivial NDK dynamics.
tokens = st.sampled_from(["a", "b", "c", "d", "e"])
documents = st.lists(tokens, min_size=2, max_size=8)
corpora = st.lists(documents, min_size=2, max_size=10)


def build_world(docs_tokens):
    network = P2PNetwork()
    params = PARAMS
    global_index = GlobalKeyIndex(network, params)
    collections = [DocumentCollection(), DocumentCollection()]
    for i, doc_tokens in enumerate(docs_tokens):
        collections[i % 2].add(
            Document(doc_id=i, tokens=tuple(doc_tokens))
        )
    indexers = []
    for p, collection in enumerate(collections):
        name = f"p{p}"
        network.add_peer(name)
        indexers.append(
            PeerIndexer(name, collection, global_index, params)
        )
    IndexingPipeline().build(indexers, params)
    full = DocumentCollection(
        Document(doc_id=i, tokens=tuple(toks))
        for i, toks in enumerate(docs_tokens)
    )
    return global_index, LocalHDKGenerator(full, params)


@settings(max_examples=25, deadline=None)
@given(corpora)
def test_global_df_is_exact(docs_tokens):
    global_index, reference = build_world(docs_tokens)
    for entry in global_index.entries():
        assert entry.global_df == reference.local_document_frequency(
            entry.key
        )


@settings(max_examples=25, deadline=None)
@given(corpora)
def test_dk_lists_full_ndk_lists_truncated(docs_tokens):
    global_index, _ = build_world(docs_tokens)
    for entry in global_index.entries():
        if entry.status is KeyStatus.DISCRIMINATIVE:
            assert len(entry.postings) == entry.global_df
        else:
            assert entry.global_df > PARAMS.df_max
            assert len(entry.postings) == PARAMS.df_max


@settings(max_examples=25, deadline=None)
@given(corpora)
def test_indexed_multiterm_dks_are_intrinsic(docs_tokens):
    global_index, _ = build_world(docs_tokens)
    entries = {e.key: e for e in global_index.entries()}
    for key, entry in entries.items():
        if len(key) < 2 or entry.status is not KeyStatus.DISCRIMINATIVE:
            continue
        for size in range(1, len(key)):
            for sub in itertools.combinations(sorted(key), size):
                sub_entry = entries.get(frozenset(sub))
                assert sub_entry is not None
                assert sub_entry.status is KeyStatus.NON_DISCRIMINATIVE


@settings(max_examples=25, deadline=None)
@given(corpora)
def test_status_classification_consistent(docs_tokens):
    global_index, _ = build_world(docs_tokens)
    for entry in global_index.entries():
        if entry.global_df <= PARAMS.df_max:
            assert entry.status is KeyStatus.DISCRIMINATIVE
        else:
            assert entry.status is KeyStatus.NON_DISCRIMINATIVE
