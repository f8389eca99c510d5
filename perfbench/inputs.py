"""Seeded input generation: the corpus, the distinct-query pool and the
Zipf-distributed query log every workload replays.

The program under test receives only what this module produces: a
:class:`~repro.corpus.collection.DocumentCollection` to index and raw
query strings to search.  One seed always yields the same inputs.

What the seed varies, and what it does not:

- The documents and the query pool with its popularity ranks are the
  workload's fixed dataset (:data:`DATASET_SEED`), the way the paper
  fixes one Wikipedia subset and one query log.  At the sizes a short
  run affords, a fresh corpus per seed moves posting counts by about
  10% and a fresh popularity ranking moves the Zipf mix's mean query
  cost by about 20% (the top query alone carries 13% of a Zipf(1.0)
  log over 1024 queries), which would swamp every bound.
- ``--seed`` shuffles the document order, so each seed splits the
  collection over the peers differently (and grows it in a different
  order), draws the Zipf log's query sequence, and offsets the source
  peer rotation.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator

#: The corpus shape of the repository's figure benches (``BENCH_CORPUS``):
#: a flat Zipf over a large vocabulary keeps rare terms arriving as the
#: collection grows, the regime that produces growing HDK index sizes.
CORPUS_SHAPE = SyntheticCorpusConfig(
    vocabulary_size=5_000,
    mean_doc_length=50,
    num_topics=12,
    zipf_skew=1.0,
)

#: HDK model parameters of the figure benches (``BENCH_EXPERIMENT``).
HDK_PARAMS = HDKParameters(df_max=12, window_size=8, s_max=3, ff=6_000, fr=3)

#: Seed of the fixed dataset (documents and query pool).
DATASET_SEED = 7


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    Attributes:
        collection: the documents to index, in the seeded order that
            decides which peer holds which document.
        pool: distinct raw query strings, in popularity-rank order
            (rank 1 first).
        log: indices into ``pool``: the Zipf-distributed replay order.
        peer_offset: where the source-peer rotation starts.
    """

    collection: DocumentCollection
    pool: tuple[str, ...]
    log: tuple[int, ...]
    peer_offset: int


def make_inputs(
    seed: int,
    num_docs: int,
    pool_size: int,
    log_length: int,
    zipf_s: float,
) -> Inputs:
    """The dataset's ``num_docs`` documents in a seeded order, its pool
    of ``pool_size`` distinct queries, and a seeded ``log_length``-entry
    Zipf(``zipf_s``) log over the pool."""
    corpus = SyntheticCorpusGenerator(CORPUS_SHAPE, seed=DATASET_SEED).generate(
        num_docs
    )
    rng = random.Random(seed)
    order = corpus.doc_ids()
    rng.shuffle(order)
    return Inputs(
        collection=corpus.subset(order),
        pool=query_pool(corpus, pool_size),
        log=zipf_log(pool_size, log_length, zipf_s, rng),
        peer_offset=rng.randrange(1 << 16),
    )


def query_pool(collection: DocumentCollection, size: int) -> tuple[str, ...]:
    """``size`` distinct multi-term queries sampled from ``collection``'s
    proximity windows (the paper's query-log model)."""
    generator = QueryLogGenerator(
        collection, window_size=HDK_PARAMS.window_size, seed=DATASET_SEED
    )
    seen: dict[frozenset[str], str] = {}
    # The generator can repeat a term set; draw until the pool is full.
    while len(seen) < size:
        for query in generator.generate(size - len(seen)):
            seen.setdefault(query.term_set, " ".join(query.terms))
    return tuple(seen.values())


def zipf_log(
    pool_size: int, length: int, s: float, rng: random.Random
) -> tuple[int, ...]:
    """``length`` pool ranks drawn i.i.d. with probability ∝ 1/rank^s."""
    cumulative = list(
        itertools.accumulate(
            1.0 / rank**s for rank in range(1, pool_size + 1)
        )
    )
    total = cumulative[-1]
    return tuple(
        min(bisect.bisect_left(cumulative, rng.random() * total), pool_size - 1)
        for _ in range(length)
    )
