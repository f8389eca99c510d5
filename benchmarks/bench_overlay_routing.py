"""Super-peer hierarchical routing vs flat DHT lookup — the PR-4 payoff.

Builds the same collection on the flat ``hdk`` backend and on
``hdk_super`` (super-peer topology + in-network DHT-path caches + Bloom
cluster summaries) across network sizes, replays a Zipf-repeating query
log on both, and reports per query: average overlay hops, postings
transferred, per-hop traffic, and where each answer came from
(responsible peer, path cache, summary skip).  The service-local LRU is
measured alongside as the comparison point for the in-network cache: the
LRU only amortizes *whole repeated term sets at one service*, while the
path cache also catches shared subsets across distinct queries.

Asserts the acceptance bar of the overlay subsystem:

- top-k rankings byte-identical to flat ``hdk`` at every tested fanout;
- fewer average retrieval hops/query than flat at the largest network
  size (>= 256 peers in the full run);
- a non-zero path-cache hit rate on the Zipf log.

Set ``REPRO_BENCH_SMOKE=1`` (the CI benchmark-smoke job) to shrink the
network sizes so the bench finishes in seconds.
"""

from __future__ import annotations

import math
import os
import random

from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.net.accounting import Phase
from repro.utils import format_table

from .conftest import BENCH_CORPUS, BENCH_EXPERIMENT, publish, publish_json

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Routing counters the hierarchical router feeds into each network's
#: metrics hub; the bench publishes their sums over the sweep's
#: super-peer services so the JSON artifact carries the same
#: hop/hit-rate story the per-router stats tables render.
_OBS_COUNTERS = (
    "overlay.lookups",
    "overlay.path_cache_hits",
    "overlay.path_cache_misses",
    "overlay.summary_skips",
    "overlay.inserts",
)


def _add_obs_counts(totals: dict[str, int], service) -> None:
    hub = service.network.metrics
    for name in _OBS_COUNTERS:
        totals[name] += hub.counter(name).value


#: Peer counts swept; the largest carries the hops/query assertion.
NETWORK_SIZES = (16, 48) if _SMOKE else (64, 256)

DOCS_PER_PEER = 4

#: Distinct queries in the pool and Zipf-sampled log length.
POOL_SIZE = 24
LOG_SIZE = 60 if _SMOKE else 150

#: Zipf skew of query popularity (rank r drawn with weight 1/r^s).
QUERY_ZIPF_SKEW = 1.0


def zipf_log(queries: list, size: int, seed: int = 17) -> list:
    """A query log where popularity follows a Zipf law over the pool."""
    rng = random.Random(seed)
    weights = [
        1.0 / (rank**QUERY_ZIPF_SKEW)
        for rank in range(1, len(queries) + 1)
    ]
    return rng.choices(queries, weights=weights, k=size)


def build(collection, num_peers: int, backend: str, **kwargs):
    service = SearchService.build(
        collection,
        num_peers=num_peers,
        backend=backend,
        params=BENCH_EXPERIMENT.hdk,
        **kwargs,
    )
    service.index()
    return service


def replay(service, log, k: int = 10):
    """Per-query rankings plus summed retrieval hops and postings."""
    rankings, hops, postings = [], 0, 0
    for query in log:
        response = service.search(query, k=k)
        rankings.append(
            [(r.doc_id, round(r.score, 12)) for r in response.results]
        )
        hops += response.traffic.hops_by_phase.get(Phase.RETRIEVAL, 0)
        postings += response.postings_transferred
    return rankings, hops, postings


def test_overlay_routing_vs_flat(benchmark):
    rows = []
    mean_hops: dict[tuple[int, str], float] = {}
    hit_rates: dict[int, float] = {}
    obs_deltas = dict.fromkeys(_OBS_COUNTERS, 0)
    for num_peers in NETWORK_SIZES:
        fanout = max(2, int(math.sqrt(num_peers)))
        collection = SyntheticCorpusGenerator(
            BENCH_CORPUS, seed=BENCH_EXPERIMENT.seed
        ).generate(num_peers * DOCS_PER_PEER)
        pool = QueryLogGenerator(
            collection,
            window_size=BENCH_EXPERIMENT.hdk.window_size,
            min_hits=3,
            seed=23,
            size_weights={2: 0.6, 3: 0.4},
        ).generate(POOL_SIZE)
        log = zipf_log(pool, LOG_SIZE)

        # Caches off on both sides: this sweep isolates *routing*; the
        # service-local LRU is measured separately below.
        flat = build(collection, num_peers, "hdk", cache_capacity=None)
        flat_rankings, flat_hops, flat_postings = replay(flat, log)
        sup = build(
            collection,
            num_peers,
            "hdk_super",
            cache_capacity=None,
            overlay_fanout=fanout,
        )
        sup_rankings, sup_hops, sup_postings = replay(sup, log)
        _add_obs_counts(obs_deltas, sup)
        assert sup_rankings == flat_rankings, (
            f"hdk_super diverged from hdk at {num_peers} peers"
        )
        assert sup_postings == flat_postings, (
            f"posting traffic diverged at {num_peers} peers"
        )

        overlay = sup.backend.stats()["overlay"]
        hit_rates[num_peers] = overlay["path_cache_hit_rate"]
        for label, hops, postings, detail in (
            ("hdk", flat_hops, flat_postings, "-"),
            (
                f"hdk_super f={fanout}",
                sup_hops,
                sup_postings,
                f"cache {overlay['path_cache_hit_rate']:.0%}, "
                f"skips {overlay['summary_skips']}",
            ),
        ):
            mean_hops[(num_peers, label.split()[0])] = hops / len(log)
            rows.append(
                [
                    str(num_peers),
                    label,
                    f"{hops / len(log):.2f}",
                    f"{postings / len(log):,.1f}",
                    f"{postings / max(1, hops):,.2f}",
                    detail,
                ]
            )

        # The comparison point: a service-local LRU on the same log
        # (whole-query amortization at the initiator).
        lru = build(
            collection,
            num_peers,
            "hdk_super",
            cache_capacity=256,
            overlay_fanout=fanout,
        )
        report = lru.run_querylog(log, k=10)
        _add_obs_counts(obs_deltas, lru)
        rows.append(
            [
                str(num_peers),
                f"hdk_super f={fanout} + LRU",
                f"{report.traffic.hops_by_phase.get(Phase.RETRIEVAL, 0) / len(log):.2f}",
                f"{report.mean_postings_per_query:,.1f}",
                "-",
                f"LRU {report.cache_hit_rate:.0%}",
            ]
        )

    table = format_table(
        [
            "peers",
            "backend",
            "hops/query",
            "postings/query",
            "postings/hop",
            "in-network answering",
        ],
        rows,
    )
    publish("overlay_routing_vs_flat", table)
    # The hubs saw every hierarchical lookup of the sweep, and the Zipf
    # log exercised the path cache through the counters too.
    assert obs_deltas["overlay.lookups"] > 0
    assert obs_deltas["overlay.path_cache_hits"] > 0
    assert obs_deltas["overlay.inserts"] > 0
    publish_json(
        "overlay_routing",
        {
            "network_sizes": list(NETWORK_SIZES),
            "queries_replayed": LOG_SIZE,
            "mean_hops_per_query": {
                f"{num_peers}/{label}": round(value, 3)
                for (num_peers, label), value in mean_hops.items()
            },
            "path_cache_hit_rate": {
                str(num_peers): round(rate, 4)
                for num_peers, rate in hit_rates.items()
            },
            "obs_counters": obs_deltas,
        },
    )

    # Acceptance: fewer average hops/query than flat at the largest
    # size, and the Zipf log actually exercises the path cache.
    largest = NETWORK_SIZES[-1]
    assert mean_hops[(largest, "hdk_super")] < mean_hops[(largest, "hdk")], (
        f"hierarchical routing did not reduce hops at {largest} peers: "
        f"{mean_hops[(largest, 'hdk_super')]:.2f} vs "
        f"{mean_hops[(largest, 'hdk')]:.2f}"
    )
    for num_peers, rate in hit_rates.items():
        assert rate > 0.0, f"path cache never hit at {num_peers} peers"

    # Timed section: the Zipf replay through the hierarchy at the
    # smallest size (re-searching is idempotent on a built service).
    num_peers = NETWORK_SIZES[0]
    collection = SyntheticCorpusGenerator(
        BENCH_CORPUS, seed=BENCH_EXPERIMENT.seed
    ).generate(num_peers * DOCS_PER_PEER)
    pool = QueryLogGenerator(
        collection,
        window_size=BENCH_EXPERIMENT.hdk.window_size,
        min_hits=3,
        seed=23,
        size_weights={2: 0.6, 3: 0.4},
    ).generate(POOL_SIZE)
    log = zipf_log(pool, LOG_SIZE)
    service = build(
        collection,
        num_peers,
        "hdk_super",
        cache_capacity=None,
        overlay_fanout=max(2, int(math.sqrt(num_peers))),
    )
    result = benchmark(lambda: replay(service, log))
    assert result[0]
