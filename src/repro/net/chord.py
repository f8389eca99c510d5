"""A Chord-style ring overlay with finger-table routing.

Responsibility follows consistent hashing: the peer responsible for a key
id is its *successor* on the ring.  Routing uses classic Chord fingers
(peer p's i-th finger is the successor of ``p + 2^i``), giving O(log N)
hops, which the simulator counts per lookup.

**Finger cache.** A peer's finger table depends only on the ring, so it
is computed once per peer and ring, not on every hop.  The overlay holds
one immutable *snapshot* ``(ring, fingers)``: the sorted tuple of peer
ids and a dict memoizing each visited peer's distinct fingers.
``add_peer``/``remove_peer`` build a new ring and swap in a new snapshot
with an empty cache in one assignment, and each ``route_hops`` call reads
the snapshot once and routes against it alone.  A walk racing a join or
leave (``search_batch(workers=N)``) therefore sees the old ring or the
new one, never a mix, and a cached finger list never outlives the ring
it was computed on -- no lock or epoch counter is needed.  Hop counts
are exactly those of the uncached walk.

Both this overlay and :class:`repro.net.pgrid.PGridOverlay` satisfy the
:class:`Overlay` protocol, so higher layers are overlay-agnostic.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Protocol

from ..errors import NetworkError, PeerNotFoundError
from .node_id import KEY_SPACE_BITS, KEY_SPACE_SIZE

__all__ = ["Overlay", "ChordOverlay"]


class Overlay(Protocol):
    """Minimal overlay interface required by :class:`P2PNetwork`."""

    def peer_ids(self) -> list[int]:
        """All peer ids currently in the overlay."""
        ...

    def responsible_peer(self, key_id: int) -> int:
        """The peer id responsible for ``key_id``."""
        ...

    def route_hops(self, source_peer: int, key_id: int) -> int:
        """Overlay hops from ``source_peer`` to the responsible peer."""
        ...

    def add_peer(self, peer_id: int) -> int:
        """Add a peer; returns the id of the peer that previously covered
        the new peer's range (the handoff source)."""
        ...

    def remove_peer(self, peer_id: int) -> int:
        """Remove a peer; returns the id of the peer that inherits its
        range (the handoff target)."""
        ...


class ChordOverlay:
    """Chord ring over the shared 2**64 id space."""

    def __init__(self, peer_ids: Iterable[int] = ()) -> None:
        #: (ring in ascending id order, peer -> finger table on that
        #: ring); replaced as a whole on every membership change.
        self._snapshot: tuple[tuple[int, ...], dict[int, _FingerTable]] = (
            (), {}
        )
        for peer_id in peer_ids:
            self.add_peer(peer_id)

    # -- membership --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._snapshot[0])

    def peer_ids(self) -> list[int]:
        """Peers in ring order (ascending id)."""
        return list(self._snapshot[0])

    def __contains__(self, peer_id: int) -> bool:
        return _contains(self._snapshot[0], peer_id)

    def add_peer(self, peer_id: int) -> int:
        """Insert ``peer_id``; returns the previous owner of its range.

        The previous owner is the new peer's successor — in Chord, a
        joining node takes over part of its successor's key range.  For
        the first peer, the peer itself is returned.
        """
        self._validate_id(peer_id)
        ring = self._snapshot[0]
        if _contains(ring, peer_id):
            raise NetworkError(f"peer id {peer_id} already in overlay")
        index = bisect.bisect_left(ring, peer_id)
        self._snapshot = (ring[:index] + (peer_id,) + ring[index:], {})
        if not ring:
            return peer_id
        return ring[index % len(ring)]

    def remove_peer(self, peer_id: int) -> int:
        """Remove ``peer_id``; returns the peer inheriting its range.

        Raises:
            PeerNotFoundError: if the peer is not in the overlay.
            NetworkError: when removing the last peer (no inheritor).
        """
        ring = self._snapshot[0]
        if not _contains(ring, peer_id):
            raise PeerNotFoundError(f"peer id {peer_id} not in overlay")
        if len(ring) == 1:
            raise NetworkError("cannot remove the last peer of the overlay")
        index = bisect.bisect_left(ring, peer_id)
        ring = ring[:index] + ring[index + 1:]
        self._snapshot = (ring, {})
        # The departed peer's keys go to its successor (wrapping).
        return ring[index % len(ring)]

    # -- responsibility and routing -------------------------------------------------

    def responsible_peer(self, key_id: int) -> int:
        """Successor of ``key_id`` on the ring."""
        self._validate_id(key_id)
        ring = self._snapshot[0]
        if not ring:
            raise NetworkError("overlay has no peers")
        return _successor(ring, key_id)

    def route_hops(self, source_peer: int, key_id: int) -> int:
        """Count greedy finger-table hops from ``source_peer`` to the peer
        responsible for ``key_id``.

        Each hop jumps to the finger that most closely precedes the key,
        exactly Chord's ``closest_preceding_node`` walk; the hop count is
        O(log N) with high probability.  The whole walk runs against
        one ring snapshot (see the module docstring).
        """
        ring, tables = self._snapshot
        if not _contains(ring, source_peer):
            raise PeerNotFoundError(
                f"source peer {source_peer} not in overlay"
            )
        self._validate_id(key_id)
        target = _successor(ring, key_id)
        current = source_peer
        hops = 0
        # Guard: in a ring of N peers the greedy walk must terminate in
        # fewer than N hops; a violation indicates a routing bug.
        for _ in range(len(ring) + 1):
            if current == target:
                return hops
            table = tables.get(current)
            if table is None:
                # Threads racing here compute the same table; either
                # store wins.
                table = tables[current] = _finger_table(ring, current)
            distances, fingers = table
            # The farthest finger strictly inside (current, key_id); when
            # none is, fingers[0], the successor, is one hop from the key.
            index = bisect.bisect_left(
                distances, (key_id - current) % KEY_SPACE_SIZE
            )
            current = fingers[max(index - 1, 0)]
            hops += 1
        raise NetworkError(
            f"routing loop from {source_peer} to key {key_id}"
        )

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _validate_id(value: int) -> None:
        if not 0 <= value < KEY_SPACE_SIZE:
            raise NetworkError(
                f"id {value} outside the {KEY_SPACE_BITS}-bit space"
            )


#: A peer's distinct fingers in ascending clockwise distance from it:
#: (distances, fingers), both sorted nearest first.
_FingerTable = tuple[tuple[int, ...], tuple[int, ...]]


def _contains(ring: tuple[int, ...], peer_id: int) -> bool:
    index = bisect.bisect_left(ring, peer_id)
    return index < len(ring) and ring[index] == peer_id


def _successor(ring: tuple[int, ...], value: int) -> int:
    """First peer id >= value, wrapping around the ring."""
    index = bisect.bisect_left(ring, value)
    return ring[index if index < len(ring) else 0]


def _finger_table(ring: tuple[int, ...], peer_id: int) -> _FingerTable:
    """Distinct fingers of ``peer_id`` on ``ring``: the successors of
    ``peer + 2^i`` for every i, keyed by clockwise distance from the
    peer.  ``peer_id`` itself (a finger that wrapped all the way round)
    is left out, as the greedy walk never hops to it.

    Picking the entry with the largest distance below the key's is the
    classic ``closest_preceding_node`` scan (farthest finger first, the
    ``peer + 1`` successor as the fallback), so hop counts are those of
    evaluating all 64 fingers on every hop.
    """
    by_distance = {}
    for i in range(KEY_SPACE_BITS):
        finger = _successor(ring, (peer_id + (1 << i)) % KEY_SPACE_SIZE)
        if finger != peer_id:
            by_distance[(finger - peer_id) % KEY_SPACE_SIZE] = finger
    distances = tuple(sorted(by_distance))
    return distances, tuple(by_distance[d] for d in distances)

