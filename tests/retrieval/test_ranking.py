"""Tests for the distributed ranker."""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RetrievalError
from repro.index.bm25 import BM25Scorer
from repro.index.postings import Posting
from repro.retrieval.ranking import DistributedRanker


@pytest.fixture()
def scorer():
    return BM25Scorer(num_documents=100, average_doc_length=10.0)


def make_ranker(scorer, dfs=None):
    return DistributedRanker(scorer, dfs or {"a": 5, "b": 5})


class TestRank:
    def test_empty_input(self, scorer):
        assert make_ranker(scorer).rank([], k=5) == []

    def test_single_term_postings(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=1, tf=3, term_tfs=(3,), doc_len=10)),
            (("a",), Posting(doc_id=2, tf=1, term_tfs=(1,), doc_len=10)),
        ]
        results = make_ranker(scorer).rank(fetched, k=5)
        assert [r.doc_id for r in results] == [1, 2]

    def test_multi_key_evidence_merged(self, scorer):
        # Document 1 appears under key {a} and key {a,b}: the ranker must
        # combine both terms' evidence.
        fetched = [
            (("a",), Posting(doc_id=1, tf=2, term_tfs=(2,), doc_len=10)),
            (
                ("a", "b"),
                Posting(doc_id=1, tf=1, term_tfs=(2, 1), doc_len=10),
            ),
            (("a",), Posting(doc_id=2, tf=2, term_tfs=(2,), doc_len=10)),
        ]
        results = make_ranker(scorer).rank(fetched, k=5)
        # Doc 1 has evidence for both a and b; doc 2 only for a.
        assert results[0].doc_id == 1
        assert results[0].score > results[1].score

    def test_k_truncates(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=d, tf=1, term_tfs=(1,), doc_len=10))
            for d in range(10)
        ]
        assert len(make_ranker(scorer).rank(fetched, k=3)) == 3

    def test_ties_broken_by_doc_id(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=5, tf=1, term_tfs=(1,), doc_len=10)),
            (("a",), Posting(doc_id=2, tf=1, term_tfs=(1,), doc_len=10)),
        ]
        results = make_ranker(scorer).rank(fetched, k=5)
        assert [r.doc_id for r in results] == [2, 5]

    def test_posting_without_term_tfs_single_term(self, scorer):
        fetched = [(("a",), Posting(doc_id=1, tf=4, doc_len=10))]
        results = make_ranker(scorer).rank(fetched, k=1)
        assert results[0].score > 0

    def test_max_tf_wins_on_conflicting_evidence(self, scorer):
        # Two sources report different tf for the same (doc, term): the
        # ranker keeps the maximum (richer evidence).
        fetched = [
            (("a",), Posting(doc_id=1, tf=1, term_tfs=(1,), doc_len=10)),
            (("a",), Posting(doc_id=1, tf=6, term_tfs=(6,), doc_len=10)),
        ]
        single = make_ranker(scorer).rank(fetched, k=1)
        only_high = make_ranker(scorer).rank([fetched[1]], k=1)
        assert single[0].score == pytest.approx(only_high[0].score)

    def test_invalid_k(self, scorer):
        with pytest.raises(RetrievalError):
            make_ranker(scorer).rank([], k=0)


class LoosePosting(NamedTuple):
    """A posting without :class:`Posting`'s validation, so the ranker can
    be fed ``tf = 0`` evidence (it reads only these four fields)."""

    doc_id: int
    tf: int
    term_tfs: tuple[int, ...]
    doc_len: int


def reference_rank(ranker, fetched, k):
    """Evidence merged per doc, then ``BM25Scorer.score_document`` per
    doc (idf recomputed for every (doc, term) pair)."""
    evidence: dict[int, dict[str, int]] = {}
    doc_lens: dict[int, int] = {}
    for key_terms, posting in fetched:
        term_map = evidence.setdefault(posting.doc_id, {})
        doc_lens[posting.doc_id] = max(
            doc_lens.get(posting.doc_id, 0), posting.doc_len
        )
        if posting.term_tfs:
            for index, term in enumerate(key_terms):
                tf = posting.term_tfs[index]
                term_map[term] = max(term_map.get(term, 0), tf)
        elif len(key_terms) == 1:
            term_map[key_terms[0]] = max(
                term_map.get(key_terms[0], 0), posting.tf
            )
    scored = [
        (
            ranker.scorer.score_document(
                term_map, doc_lens[doc_id], ranker.term_dfs
            ),
            doc_id,
        )
        for doc_id, term_map in evidence.items()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored[:k]


TERMS = ("a", "b", "c", "d")


@st.composite
def fetched_entries(draw):
    key_terms = tuple(
        sorted(draw(st.sets(st.sampled_from(TERMS), min_size=1, max_size=3)))
    )
    with_term_tfs = draw(st.booleans())
    term_tfs = (
        tuple(
            draw(st.integers(min_value=0, max_value=6)) for _ in key_terms
        )
        if with_term_tfs
        else ()
    )
    posting = LoosePosting(
        # Few doc ids, so a doc shows up under several keys.
        doc_id=draw(st.integers(min_value=0, max_value=5)),
        tf=draw(st.integers(min_value=0, max_value=6)),
        term_tfs=term_tfs,
        doc_len=draw(st.integers(min_value=0, max_value=40)),
    )
    return key_terms, posting


@st.composite
def rankers(draw):
    num_documents = draw(st.integers(min_value=1, max_value=60))
    scorer = BM25Scorer(
        num_documents=num_documents,
        average_doc_length=draw(
            st.floats(min_value=0.5, max_value=50.0, allow_nan=False)
        ),
        k1=draw(st.sampled_from((0.0, 1.2, 2.0))),
        b=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    )
    # Terms left out of term_dfs score with df = 0.
    term_dfs = draw(
        st.dictionaries(
            st.sampled_from(TERMS),
            st.integers(min_value=0, max_value=num_documents),
        )
    )
    return DistributedRanker(scorer, term_dfs)


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        ranker=rankers(),
        fetched=st.lists(fetched_entries(), max_size=25),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_rank_equals_per_doc_score_document(self, ranker, fetched, k):
        expected = reference_rank(ranker, fetched, k)
        results = ranker.rank(fetched, k)
        assert [(r.score, r.doc_id) for r in results] == expected
