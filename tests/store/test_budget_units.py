"""Byte-denominated RAM budgets.

Every store layer budgets RAM in **encoded bytes**: the block cache
(``cache_bytes``), hot residency (``memory_budget_bytes``) and the
memtable (``memtable_bytes``).  Posting counts remain the paper's
*measurement* unit (traffic, ``held_postings``, ``hot_postings``) but
are no budget knob, and the old posting-count knobs are rejected like
any unknown argument.  The part that matters most: a budget only moves
*where* postings live (RAM vs segments), never *what* any read returns.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.index.codec import posting_list_wire_size
from repro.index.postings import Posting, PostingList
from repro.net.chord import ChordOverlay
from repro.net.network import P2PNetwork
from repro.store.blockcache import BlockCache
from repro.store.spill import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    SpillingGlobalKeyIndex,
)
from repro.store.store import SegmentStore
from repro.store.segment import SegmentRecord

PARAMS = HDKParameters(df_max=5, window_size=6, s_max=2, ff=1_000, fr=2)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=200, mean_doc_length=25, num_topics=4, zipf_skew=1.2
)

#: Corpus flags of a tiny ``repro search`` run.
SEARCH = [
    "search",
    "t00001 t00002",
    "--docs",
    "30",
    "--vocabulary",
    "200",
    "--peers",
    "3",
    "--df-max",
    "5",
    "--window",
    "6",
]


def _postings(*doc_ids: int) -> PostingList:
    return PostingList(Posting(doc_id=doc_id, tf=1) for doc_id in doc_ids)


def _spilling_index(**kwargs) -> SpillingGlobalKeyIndex:
    return SpillingGlobalKeyIndex(
        P2PNetwork(overlay=ChordOverlay()), PARAMS, **kwargs
    )


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda tmp: SegmentStore(tmp / "s", cache_postings=100),
            id="SegmentStore-cache_postings",
        ),
        pytest.param(
            lambda tmp: _spilling_index(
                store_dir=tmp / "s", memory_budget=25
            ),
            id="SpillingGlobalKeyIndex-memory_budget",
        ),
        pytest.param(
            lambda tmp: SearchService.build(
                SyntheticCorpusGenerator(CORPUS, seed=1).generate(6),
                num_peers=2,
                backend="hdk_disk",
                memory_budget=25,
            ),
            id="SearchService.build-memory_budget",
        ),
        pytest.param(
            lambda tmp: main(SEARCH + ["--memory-budget", "25"]),
            id="cli-memory-budget",
        ),
        pytest.param(
            lambda tmp: main(SEARCH + ["--mode", "single_term"]),
            id="cli-mode",
        ),
    ],
)
def test_unknown_kwarg_is_rejected(build, tmp_path, capsys):
    """The posting-count budget and the ``--mode`` selector are gone:
    passing them is an error, never a silent fallback."""
    with pytest.raises((TypeError, SystemExit)) as excinfo:
        build(tmp_path)
    if excinfo.type is SystemExit:
        assert excinfo.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBlockCache:
    def test_byte_budget_bounds_encoded_bytes(self):
        """Eviction is driven by the encoded size of what is held, not
        by how many posting entries the lists happen to contain."""
        big = _postings(*range(50))
        cache = BlockCache(capacity_bytes=posting_list_wire_size(big))
        cache.put("big", big)
        assert cache.get("big") is big
        # A second block forces the first out: together they exceed the
        # byte budget even though they hold only 51 postings.
        cache.put("small", _postings(1))
        assert cache.get("big") is None
        assert cache.held_bytes <= cache.capacity

    def test_both_occupancy_views_tracked(self):
        """The budget is in bytes, but the paper's posting view of the
        occupancy stays honest too."""
        cache = BlockCache(capacity_bytes=1024)
        first, second = _postings(1, 2, 3), _postings(4)
        cache.put("a", first)
        cache.put("b", second)
        assert cache.held_postings == 4
        assert cache.held_bytes == (
            posting_list_wire_size(first) + posting_list_wire_size(second)
        )


class TestSegmentStoreKnobs:
    def test_cache_bytes_is_the_quiet_path(self, tmp_path):
        store = SegmentStore(tmp_path / "s", cache_bytes=1024)
        assert store.cache.capacity == 1024
        store.close()

    def test_budget_changes_residency_not_results(self, tmp_path):
        """Same records through a cache-less and a small-cache store:
        identical reads, key by key."""
        records = [
            SegmentRecord.from_postings(
                frozenset({f"k{i:02d}"}),
                _postings(*range(i % 5 + 1)),
                global_df=i,
                status_code=0,
                contributors=(7,),
            )
            for i in range(40)
        ]
        uncached = SegmentStore(tmp_path / "uncached", cache_bytes=0)
        cached = SegmentStore(tmp_path / "cached", cache_bytes=64)
        for record in records:
            uncached.put_record(record)
            cached.put_record(record)
        assert set(uncached.keys()) == set(cached.keys())
        for record in records:
            left = uncached.get_postings(record.key)
            right = cached.get_postings(record.key)
            assert [(p.doc_id, p.tf) for p in left] == [
                (p.doc_id, p.tf) for p in right
            ]
        assert len(uncached.cache) == 0 < len(cached.cache)
        uncached.close()
        cached.close()


class TestSpillingIndexKnobs:
    def test_default_is_bytes(self, tmp_path):
        index = _spilling_index(store_dir=tmp_path / "s")
        stats = index.spill_stats()
        assert stats["memory_budget"] == DEFAULT_MEMORY_BUDGET_BYTES
        assert index.store.cache.capacity == DEFAULT_MEMORY_BUDGET_BYTES
        index.store.close()


class TestEndToEndEquivalence:
    """The budget is a residency knob, not a semantics knob: any byte
    budget — including zero, spilling everything — must leave search
    results identical to the in-RAM ``hdk`` backend."""

    @pytest.fixture(scope="class")
    def collection(self):
        return SyntheticCorpusGenerator(CORPUS, seed=13).generate(48)

    def _search_all(self, service):
        queries = ("t00001 t00002", "t00003 t00007", "t00010")
        return {
            query: [
                (r.doc_id, round(r.score, 10))
                for r in service.search(query, k=10).results
            ]
            for query in queries
        }

    def test_budgets_and_hdk_agree(self, collection, tmp_path):
        reference = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        reference.index()
        expected = self._search_all(reference)

        for budget in (0, 160, 600):
            service = SearchService.build(
                collection,
                num_peers=3,
                backend="hdk_disk",
                params=PARAMS,
                store_dir=tmp_path / f"run-{budget}",
                memory_budget_bytes=budget,
            )
            service.index()
            assert self._search_all(service) == expected, budget
            index = service.backend.global_index
            assert index.spill_stats()["spills"] > 0, budget
            index.store.close()


class TestCliKnobs:
    def test_memory_budget_bytes_accepted(self, capsys):
        code = main(
            SEARCH + ["--backend", "hdk_disk", "--memory-budget-bytes", "2048"]
        )
        assert code == 0
        assert "indexed 30 documents" in capsys.readouterr().out
