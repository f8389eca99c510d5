"""Tests for the Chord-style overlay."""

from __future__ import annotations

import bisect
import math
import random
import sys
import threading

import pytest

from repro.errors import NetworkError, PeerNotFoundError
from repro.net import chord
from repro.net.chord import ChordOverlay
from repro.net.node_id import (
    KEY_SPACE_BITS,
    KEY_SPACE_SIZE,
    hash_to_id,
    peer_id_for,
)


def make_overlay(n: int) -> ChordOverlay:
    return ChordOverlay(peer_id_for(f"peer-{i}") for i in range(n))


# -- reference walk: every finger bisected on every hop, nothing cached --------


def _in_open_interval(value: int, low: int, high: int) -> bool:
    """True iff ``value`` lies in the circular open interval (low, high)."""
    if low == high:
        # Full circle (single-peer degenerate case).
        return value != low
    if low < high:
        return low < value < high
    return value > low or value < high


def _reference_successor(ring: list[int], value: int) -> int:
    index = bisect.bisect_left(ring, value)
    return ring[index if index < len(ring) else 0]


def reference_route(ring: list[int], source: int, key_id: int) -> list[int]:
    """Chord's ``closest_preceding_node`` walk over all 64 finger
    targets ``current + 2^i``, farthest first, recomputed on every hop.
    Returns the peers each hop leaves from (one per hop)."""
    target = _reference_successor(ring, key_id)
    current = source
    path = []
    while current != target:
        path.append(current)
        best = None
        for i in reversed(range(KEY_SPACE_BITS)):
            finger = _reference_successor(
                ring, (current + (1 << i)) % KEY_SPACE_SIZE
            )
            if finger != current and _in_open_interval(
                finger, current, key_id
            ):
                best = finger
                break
        if best is None:
            best = _reference_successor(
                ring, (current + 1) % KEY_SPACE_SIZE
            )
        current = best
        assert len(path) <= len(ring)
    return path


def assert_routes_match_reference(
    overlay: ChordOverlay, rng: random.Random, pairs: int
) -> None:
    ring = overlay.peer_ids()
    for _ in range(pairs):
        source = rng.choice(ring)
        # Half random keys, half keys at or next to a peer id (the
        # boundaries of the successor rule).
        if rng.random() < 0.5:
            key = rng.randrange(KEY_SPACE_SIZE)
        else:
            key = (rng.choice(ring) + rng.choice((-1, 0, 1))) % KEY_SPACE_SIZE
        assert overlay.route_hops(source, key) == len(
            reference_route(ring, source, key)
        ), (source, key)


class TestMembership:
    def test_add_and_contains(self):
        overlay = ChordOverlay()
        overlay.add_peer(100)
        assert 100 in overlay
        assert 200 not in overlay
        assert len(overlay) == 1

    def test_duplicate_rejected(self):
        overlay = ChordOverlay([100])
        with pytest.raises(NetworkError):
            overlay.add_peer(100)

    def test_peer_ids_sorted(self):
        overlay = ChordOverlay([300, 100, 200])
        assert overlay.peer_ids() == [100, 200, 300]

    def test_first_join_returns_self(self):
        overlay = ChordOverlay()
        assert overlay.add_peer(42) == 42

    def test_join_returns_successor(self):
        overlay = ChordOverlay([100, 300])
        # 200 joins; its keys come from its successor 300.
        assert overlay.add_peer(200) == 300

    def test_remove_returns_inheritor(self):
        overlay = ChordOverlay([100, 200, 300])
        assert overlay.remove_peer(200) == 300
        assert 200 not in overlay

    def test_remove_wraps(self):
        overlay = ChordOverlay([100, 300])
        # Removing the highest peer: its range goes to the lowest (wrap).
        assert overlay.remove_peer(300) == 100

    def test_remove_unknown_raises(self):
        with pytest.raises(PeerNotFoundError):
            ChordOverlay([1]).remove_peer(2)

    def test_remove_last_raises(self):
        with pytest.raises(NetworkError):
            ChordOverlay([1]).remove_peer(1)

    def test_out_of_space_id_rejected(self):
        with pytest.raises(NetworkError):
            ChordOverlay().add_peer(KEY_SPACE_SIZE)


class TestResponsibility:
    def test_successor_rule(self):
        overlay = ChordOverlay([100, 200, 300])
        assert overlay.responsible_peer(150) == 200
        assert overlay.responsible_peer(200) == 200
        assert overlay.responsible_peer(250) == 300

    def test_wraparound(self):
        overlay = ChordOverlay([100, 200, 300])
        assert overlay.responsible_peer(301) == 100
        assert overlay.responsible_peer(50) == 100

    def test_empty_overlay_raises(self):
        with pytest.raises(NetworkError):
            ChordOverlay().responsible_peer(5)

    def test_every_key_has_exactly_one_owner(self):
        overlay = make_overlay(12)
        rng = random.Random(5)
        for _ in range(200):
            key = rng.randrange(KEY_SPACE_SIZE)
            owner = overlay.responsible_peer(key)
            assert owner in overlay.peer_ids()

    def test_consistency_under_join(self):
        # After a join, every key either keeps its owner or moves to the
        # new peer — never to a third peer (consistent hashing).
        overlay = make_overlay(8)
        keys = [hash_to_id(f"key-{i}") for i in range(300)]
        before = {k: overlay.responsible_peer(k) for k in keys}
        new_peer = peer_id_for("joiner")
        overlay.add_peer(new_peer)
        for key, old_owner in before.items():
            new_owner = overlay.responsible_peer(key)
            assert new_owner in (old_owner, new_peer)


class TestRouting:
    def test_zero_hops_to_self(self):
        overlay = ChordOverlay([100, 200])
        assert overlay.route_hops(200, 150) == 0

    def test_single_peer_zero_hops(self):
        overlay = ChordOverlay([100])
        assert overlay.route_hops(100, 5) == 0

    def test_unknown_source_raises(self):
        with pytest.raises(PeerNotFoundError):
            ChordOverlay([100]).route_hops(999, 5)

    def test_routing_terminates_everywhere(self):
        overlay = make_overlay(20)
        peers = overlay.peer_ids()
        rng = random.Random(2)
        for _ in range(100):
            source = rng.choice(peers)
            key = rng.randrange(KEY_SPACE_SIZE)
            hops = overlay.route_hops(source, key)
            assert 0 <= hops < len(peers)

    def test_logarithmic_hop_bound(self):
        # Chord guarantees O(log N) hops w.h.p.; assert a generous bound.
        n = 64
        overlay = make_overlay(n)
        peers = overlay.peer_ids()
        rng = random.Random(7)
        worst = 0
        for _ in range(300):
            source = rng.choice(peers)
            key = rng.randrange(KEY_SPACE_SIZE)
            worst = max(worst, overlay.route_hops(source, key))
        assert worst <= 3 * math.ceil(math.log2(n))


class TestIntervalHelper:
    def test_simple_interval(self):
        assert _in_open_interval(5, 1, 10)
        assert not _in_open_interval(1, 1, 10)
        assert not _in_open_interval(10, 1, 10)

    def test_wrapping_interval(self):
        assert _in_open_interval(1, 10, 5)
        assert _in_open_interval(11, 10, 5)
        assert not _in_open_interval(7, 10, 5)

    def test_full_circle(self):
        assert _in_open_interval(3, 5, 5)
        assert not _in_open_interval(5, 5, 5)


class TestFingerCache:
    """The memoized finger tables route exactly like the uncached walk,
    and never survive a membership change."""

    @pytest.mark.parametrize(
        "seed,size", [(0, 1), (1, 2), (2, 7), (3, 40), (4, 120), (5, 200)]
    )
    def test_routes_match_reference_under_churn(self, seed, size):
        rng = random.Random(seed)
        # Odd seeds crowd the ids, so fingers wrap and collapse onto few
        # peers.
        span = 4 * size if seed % 2 else KEY_SPACE_SIZE
        overlay = ChordOverlay({rng.randrange(span) for _ in range(size)})
        # Each check warms the tables the next change must drop.
        assert_routes_match_reference(overlay, rng, 100)
        for _ in range(12):
            if len(overlay) > 1 and rng.random() < 0.5:
                overlay.remove_peer(rng.choice(overlay.peer_ids()))
            else:
                peer = rng.randrange(KEY_SPACE_SIZE)
                if peer not in overlay:
                    overlay.add_peer(peer)
            assert_routes_match_reference(overlay, rng, 60)

    def test_tables_computed_once_per_visited_peer(self, monkeypatch):
        computed: list[int] = []
        original = chord._finger_table

        def counting(ring, peer_id):
            computed.append(peer_id)
            return original(ring, peer_id)

        monkeypatch.setattr(chord, "_finger_table", counting)
        overlay = make_overlay(64)
        peers = overlay.peer_ids()
        rng = random.Random(3)
        lookups = [
            (rng.choice(peers), rng.randrange(KEY_SPACE_SIZE))
            for _ in range(400)
        ]
        visited = set()
        for source, key in lookups:
            overlay.route_hops(source, key)
            visited.update(reference_route(peers, source, key))
        # Without the cache every one of the ~1000 hops computes a table.
        assert len(computed) <= len(visited) <= len(peers)
        assert set(computed) == visited
        # A join drops every table: the same lookups compute them anew.
        computed.clear()
        overlay.add_peer(peer_id_for("joiner"))
        for source, key in lookups:
            overlay.route_hops(source, key)
        assert 0 < len(computed) == len(set(computed))

    def test_concurrent_routes_during_churn(self):
        """Four routing threads race joins and leaves: no walk may mix
        two rings (a departed peer's stale table would loop or index
        out of range), and once membership settles every route is the
        reference's."""
        overlay = make_overlay(48)
        stable = overlay.peer_ids()[:24]
        churners = [peer_id_for(f"churn-{i}") for i in range(24)]
        errors: list[BaseException] = []
        done = threading.Event()

        def route() -> None:
            rng = random.Random(threading.get_ident())
            try:
                while not done.is_set():
                    overlay.route_hops(
                        rng.choice(stable), rng.randrange(KEY_SPACE_SIZE)
                    )
            except Exception as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=route) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            rng = random.Random(5)
            for _ in range(6):
                for peer in churners:
                    overlay.add_peer(peer)
                for peer in overlay.peer_ids():
                    if peer not in stable and rng.random() < 0.7:
                        overlay.remove_peer(peer)
                for peer in churners:
                    if peer in overlay:
                        overlay.remove_peer(peer)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert_routes_match_reference(overlay, rng, 300)
