"""Golden test for the overlay's stats surface.

A seeded adaptive ``hdk_super`` service over P-Grid replays a skewed
Zipf query log (enough lookups to split clusters and merge them back),
then a join re-clusters the network.  Its ``stats()["overlay"]`` and
the gateway's fleet aggregate over two such services must equal the
recorded values in ``fixtures/overlay_stats_golden.json`` — every
counter, the sparse ``per_super_peer`` entries and the zero-filled
``sp_load`` labels.  Only the latency histogram is left out of the
fixture: it measures wall-clock time.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from harness.equivalence import build_indexed_service, make_querylog
from repro.serving.gateway import _aggregate_worker_stats

GOLDEN = Path(__file__).parent / "fixtures" / "overlay_stats_golden.json"


def zipf_service(collection, params, seed: int):
    """Index 240 docs on 24 peers, replay 300 Zipf(1.1) queries, cool
    the overlay down with 600 repeats of the hottest query from one
    leaf (split pairs elsewhere go calm and merge), then join 4 peers
    with the last 60 docs."""
    ids = collection.doc_ids()
    first = collection.subset(ids[:240])
    service = build_indexed_service(
        first,
        "hdk_super",
        params,
        num_peers=24,
        overlay="pgrid",
        overlay_fanout=6,
        overlay_adaptive=True,
        overlay_split_threshold=8,
        overlay_merge_threshold=2,
    )
    pool = make_querylog(first, params, 24)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    peers = service.network.peer_names()
    log = random.Random(seed).choices(pool, weights, k=300)
    for i, query in enumerate(log):
        service.search(query, k=10, source_peer=peers[i % len(peers)])
    for _ in range(600):
        service.search(pool[0], k=10, source_peer=peers[0])
    service.add_peers(collection.subset(ids[240:]), 4)
    return service


@pytest.fixture(scope="module")
def replies(small_collection, small_params):
    return [
        zipf_service(small_collection, small_params, seed).stats()
        for seed in (7, 8)
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_service_overlay_stats_match_golden(replies, golden):
    overlay = replies[0]["overlay"]
    assert overlay["splits"] >= 1 and overlay["merges"] >= 1
    assert 0 in overlay["sp_load"].values()
    assert overlay == golden["overlay"]


def test_gateway_aggregate_matches_golden(replies, golden):
    aggregate = _aggregate_worker_stats(
        replies + [{"error": "worker down"}]
    )
    latency = aggregate.pop("latency")
    assert aggregate == golden["service"]
    assert latency["count"] == sum(r["latency"]["count"] for r in replies)
