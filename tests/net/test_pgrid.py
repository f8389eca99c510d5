"""Tests for the P-Grid-style trie overlay."""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError, PeerNotFoundError
from repro.net.node_id import KEY_SPACE_BITS, KEY_SPACE_SIZE, peer_id_for
from repro.net.pgrid import PGridOverlay


def make_overlay(n: int) -> PGridOverlay:
    return PGridOverlay([peer_id_for(f"peer-{i}") for i in range(n)])


class TestTrieStructure:
    def test_first_peer_owns_everything(self):
        overlay = PGridOverlay([7])
        assert overlay.path_of(7) == ""
        assert overlay.responsible_peer(0) == 7
        assert overlay.responsible_peer(KEY_SPACE_SIZE - 1) == 7

    def test_second_peer_splits_root(self):
        overlay = PGridOverlay([7, 9])
        assert {overlay.path_of(7), overlay.path_of(9)} == {"0", "1"}

    def test_paths_form_prefix_free_cover(self):
        overlay = make_overlay(11)
        paths = [overlay.path_of(p) for p in overlay.peer_ids()]
        # Prefix-free: no path is a prefix of another.
        for a in paths:
            for b in paths:
                if a != b:
                    assert not b.startswith(a)
        # Cover: total measure of the regions is 1.
        total = sum(2.0 ** -len(p) for p in paths)
        assert total == pytest.approx(1.0)

    def test_balanced_split_depths(self):
        overlay = make_overlay(8)
        depths = [len(overlay.path_of(p)) for p in overlay.peer_ids()]
        assert max(depths) - min(depths) <= 1

    def test_duplicate_peer_rejected(self):
        overlay = PGridOverlay([5])
        with pytest.raises(NetworkError):
            overlay.add_peer(5)

    def test_join_returns_split_victim(self):
        overlay = PGridOverlay([5])
        assert overlay.add_peer(9) == 5


class TestResponsibility:
    def test_prefix_rule(self):
        overlay = PGridOverlay([5, 9])
        # Peer with path "0" owns the lower half of the space.
        owner_low = overlay.responsible_peer(1)
        owner_high = overlay.responsible_peer(KEY_SPACE_SIZE - 2)
        assert owner_low != owner_high
        assert overlay.path_of(owner_low) == "0"
        assert overlay.path_of(owner_high) == "1"

    def test_every_key_owned(self):
        overlay = make_overlay(9)
        rng = random.Random(1)
        peers = set(overlay.peer_ids())
        for _ in range(300):
            key = rng.randrange(KEY_SPACE_SIZE)
            assert overlay.responsible_peer(key) in peers

    def test_empty_overlay_raises(self):
        with pytest.raises(NetworkError):
            PGridOverlay().responsible_peer(1)

    def test_out_of_space_key_rejected(self):
        with pytest.raises(NetworkError):
            PGridOverlay([1]).responsible_peer(KEY_SPACE_SIZE)


class TestRemoval:
    def test_sibling_inherits(self):
        overlay = PGridOverlay([5, 9])
        inheritor = overlay.remove_peer(9)
        assert inheritor == 5
        # 5 owns everything again.
        assert overlay.responsible_peer(KEY_SPACE_SIZE - 1) == 5

    def test_remove_unknown_raises(self):
        with pytest.raises(PeerNotFoundError):
            PGridOverlay([5]).remove_peer(99)

    def test_remove_last_raises(self):
        with pytest.raises(NetworkError):
            PGridOverlay([5]).remove_peer(5)

    def test_coverage_preserved_after_removal(self):
        overlay = make_overlay(7)
        victims = overlay.peer_ids()[:3]
        rng = random.Random(4)
        for victim in victims:
            overlay.remove_peer(victim)
            peers = set(overlay.peer_ids())
            for _ in range(100):
                key = rng.randrange(KEY_SPACE_SIZE)
                assert overlay.responsible_peer(key) in peers


class TestRouting:
    def test_zero_hops_to_own_region(self):
        overlay = PGridOverlay([5, 9])
        low_owner = overlay.responsible_peer(1)
        assert overlay.route_hops(low_owner, 1) == 0

    def test_hops_positive_to_other_region(self):
        overlay = PGridOverlay([5, 9])
        low_owner = overlay.responsible_peer(1)
        high_key = KEY_SPACE_SIZE - 2
        assert overlay.route_hops(low_owner, high_key) >= 1

    def test_hops_bounded_by_trie_depth(self):
        overlay = make_overlay(16)
        max_depth = max(
            len(overlay.path_of(p)) for p in overlay.peer_ids()
        )
        rng = random.Random(3)
        peers = overlay.peer_ids()
        for _ in range(200):
            source = rng.choice(peers)
            key = rng.randrange(KEY_SPACE_SIZE)
            assert overlay.route_hops(source, key) <= max_depth

    def test_unknown_source_raises(self):
        with pytest.raises(PeerNotFoundError):
            PGridOverlay([5]).route_hops(99, 1)


def reference_route_hops(
    paths: dict[str, int], source: int, key_id: int
) -> int:
    """P-Grid routing cost recomputed from the bare path -> peer cover:
    the source's shortest path, the key's covering path by a prefix
    walk, and the levels of it beyond their common prefix."""
    bits = format(key_id, f"0{KEY_SPACE_BITS}b")
    source_path = min(
        (p for p, owner in paths.items() if owner == source),
        key=lambda p: (len(p), p),
    )
    target_path = next(
        bits[:end] for end in range(len(bits) + 1) if bits[:end] in paths
    )
    if paths[target_path] == source:
        return 0
    common = 0
    for source_bit, key_bit in zip(source_path, bits):
        if source_bit != key_bit:
            break
        common += 1
    return max(1, len(target_path) - common)


class TestRoutingOracle:
    """Cached primary paths route exactly like the recomputed cover."""

    @pytest.mark.parametrize("seed,size", [(0, 1), (1, 2), (2, 9), (3, 64)])
    def test_routes_match_reference_under_churn(self, seed, size):
        rng = random.Random(seed)
        overlay = PGridOverlay(
            list({rng.randrange(KEY_SPACE_SIZE) for _ in range(size)})
        )

        def check(pairs: int) -> None:
            paths = overlay.paths()
            peers = overlay.peer_ids()
            for peer in peers:
                assert overlay.path_of(peer) == min(
                    (p for p, owner in paths.items() if owner == peer),
                    key=lambda p: (len(p), p),
                )
            for _ in range(pairs):
                source = rng.choice(peers)
                key = rng.randrange(KEY_SPACE_SIZE)
                assert overlay.route_hops(source, key) == (
                    reference_route_hops(paths, source, key)
                ), (source, key)

        check(100)
        for _ in range(15):
            if len(overlay) > 1 and rng.random() < 0.5:
                departed = rng.choice(overlay.peer_ids())
                overlay.path_of(departed)  # cached before it leaves
                overlay.remove_peer(departed)
                with pytest.raises(PeerNotFoundError):
                    overlay.path_of(departed)
                with pytest.raises(PeerNotFoundError):
                    overlay.route_hops(departed, 0)
            else:
                overlay.add_peer(rng.randrange(KEY_SPACE_SIZE))
            check(60)
