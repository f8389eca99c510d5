"""Traffic accounting.

Mirrors the paper's cost model: the dominant cost is the number of
*postings* transmitted through the network, tracked separately for the
indexing and retrieval phases (Figures 4 and 6).  Message and hop counts
are also kept for overlay diagnostics, and maintenance traffic (key
handoffs on churn) is tracked but reported separately, exactly as the paper
excludes it from its analysis.

Concurrency model: the accounting object is shared by every thread that
touches the network, so the global counters are guarded by a lock and
measurement windows *accumulate* messages as they are recorded instead of
diffing global snapshots (a snapshot diff taken around one query would
absorb every message other threads recorded in the meantime).  A window is
opened with a scope:

- ``scope="thread"`` — the window only sees messages recorded *by the
  thread that opened it*.  This is what makes per-query traffic windows
  exact under a concurrent ``search_batch``: each worker thread runs its
  query's backend section and accumulates only its own messages.
- ``scope="global"`` — the window sees messages recorded by *every*
  thread (batch-level aggregates, experiment-level measurements).

Either scope aggregates into the same global totals; closing a window
freezes its delta.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .messages import Message, MessageKind

__all__ = [
    "Phase",
    "TrafficAccounting",
    "TrafficSnapshot",
    "TrafficWindow",
    "diff_snapshots",
    "empty_snapshot",
    "merge_snapshots",
]


class Phase(Enum):
    """The protocol phase a message belongs to."""

    INDEXING = "indexing"
    RETRIEVAL = "retrieval"
    MAINTENANCE = "maintenance"

    #: Members are singletons compared by identity, so identity hashing
    #: agrees with ``==``; it spares every counter update a Python-level
    #: ``Enum.__hash__`` call.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable view of the counters at one instant."""

    postings_by_phase: dict[Phase, int]
    messages_by_phase: dict[Phase, int]
    hops_by_phase: dict[Phase, int]
    messages_by_kind: dict[MessageKind, int]

    @property
    def indexing_postings(self) -> int:
        return self.postings_by_phase.get(Phase.INDEXING, 0)

    @property
    def retrieval_postings(self) -> int:
        return self.postings_by_phase.get(Phase.RETRIEVAL, 0)

    @property
    def maintenance_postings(self) -> int:
        return self.postings_by_phase.get(Phase.MAINTENANCE, 0)

    @property
    def total_postings(self) -> int:
        """All postings including maintenance (the paper's headline numbers
        exclude maintenance; reports show both)."""
        return sum(self.postings_by_phase.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_phase.values())

    @property
    def total_hops(self) -> int:
        return sum(self.hops_by_phase.values())

    def as_dict(self) -> dict[str, object]:
        """Plain-data view: string keys, int values — picklable without
        importing this module and JSON-serializable as-is (the shape
        service ``stats()`` ships across process and HTTP boundaries)."""
        return {
            "postings_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.postings_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "messages_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.messages_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "hops_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.hops_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "messages_by_kind": {
                kind.name.lower(): count
                for kind, count in sorted(
                    self.messages_by_kind.items(), key=lambda kv: kv[0].name
                )
            },
            "indexing_postings": self.indexing_postings,
            "retrieval_postings": self.retrieval_postings,
            "maintenance_postings": self.maintenance_postings,
            "total_postings": self.total_postings,
            "total_messages": self.total_messages,
            "total_hops": self.total_hops,
        }


class TrafficAccounting:
    """Mutable counters fed by the network simulator.

    The accounting object is shared: the network logs every message into
    it, and experiments snapshot/diff it around the operations they
    measure.  All mutation goes through :meth:`record`, which is
    thread-safe; per-thread measurement windows (see :meth:`measure`)
    keep per-operation deltas exact even when several threads record
    concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._postings: Counter[Phase] = Counter()
        self._messages: Counter[Phase] = Counter()
        self._hops: Counter[Phase] = Counter()
        self._by_kind: Counter[MessageKind] = Counter()
        self._current_phase = Phase.INDEXING
        #: Open windows fed by every thread's messages (under the lock).
        #: Weak references: the old snapshot-diff windows cost nothing
        #: when abandoned unclosed, so the accumulating kind must not
        #: regress that — a window nobody holds is collected and pruned
        #: on the next record() instead of taxing it forever.
        self._global_windows: list["weakref.ref[TrafficWindow]"] = []
        #: Per-thread :class:`_ThreadState` (thread-scoped windows and
        #: phase override) under the attribute ``state``.
        self._local = threading.local()

    def _thread_state(self) -> "_ThreadState":
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def _thread_windows(self) -> list["weakref.ref[TrafficWindow]"]:
        return self._thread_state().windows

    @staticmethod
    def _absorb_into(
        refs: list["weakref.ref[TrafficWindow]"],
        phase: Phase,
        message: Message,
    ) -> None:
        """Feed ``message`` to every live window in ``refs``, pruning
        refs whose window was abandoned without close()."""
        dead = False
        for ref in refs:
            window = ref()
            if window is None:
                dead = True
            else:
                window._absorb(phase, message)
        if dead:
            refs[:] = [ref for ref in refs if ref() is not None]

    # -- phase control ---------------------------------------------------------

    @property
    def phase(self) -> Phase:
        """The phase newly logged messages are attributed to (the
        thread-local override from :meth:`phase_scope` wins)."""
        override = self._thread_state().phase_override
        return override if override is not None else self._current_phase

    def set_phase(self, phase: Phase) -> None:
        """Switch the accounting phase (indexing/retrieval/maintenance)."""
        if not isinstance(phase, Phase):
            raise TypeError(f"expected Phase, got {type(phase).__name__}")
        self._current_phase = phase

    @contextmanager
    def phase_scope(self, phase: Phase) -> Iterator[None]:
        """Attribute messages recorded *by this thread* inside the block
        to ``phase``, without touching the shared phase other threads
        read (e.g. maintenance handoffs racing with retrieval queries).
        """
        if not isinstance(phase, Phase):
            raise TypeError(f"expected Phase, got {type(phase).__name__}")
        state = self._thread_state()
        previous = state.phase_override
        state.phase_override = phase
        try:
            yield
        finally:
            state.phase_override = previous

    # -- recording ------------------------------------------------------------

    def record(self, message: Message) -> None:
        """Attribute ``message`` to the current phase (thread-safe)."""
        state = self._thread_state()
        phase = state.phase_override
        if phase is None:
            phase = self._current_phase
        with self._lock:
            self._postings[phase] += message.postings
            self._messages[phase] += 1
            self._hops[phase] += message.hops
            self._by_kind[message.kind] += 1
            if self._global_windows:
                self._absorb_into(self._global_windows, phase, message)
        # Thread-scoped windows belong to this thread alone: no other
        # thread reads them while open, so no lock is needed.
        if state.windows:
            self._absorb_into(state.windows, phase, message)

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> TrafficSnapshot:
        """Return an immutable copy of all counters."""
        with self._lock:
            return TrafficSnapshot(
                postings_by_phase=dict(self._postings),
                messages_by_phase=dict(self._messages),
                hops_by_phase=dict(self._hops),
                messages_by_kind=dict(self._by_kind),
            )

    def measure(self, scope: str = "global") -> "TrafficWindow":
        """Open a measurement window over these counters.

        Usable as a context manager::

            with accounting.measure() as window:
                engine.search(...)
            print(window.delta.retrieval_postings)

        ``window.delta`` is the per-phase traffic generated inside the
        window — the snapshot-diff idiom experiments previously spelled
        out by hand around every measured operation.

        Args:
            scope: ``"global"`` (default) accumulates messages recorded
                by every thread; ``"thread"`` accumulates only messages
                recorded by the calling thread, which keeps the delta
                exact when other threads record concurrently (per-query
                windows under a parallel batch).  A thread-scoped window
                must be closed by the thread that opened it.
        """
        return TrafficWindow(self, scope=scope)

    def postings(self, phase: Phase) -> int:
        """Postings transmitted so far in ``phase``."""
        with self._lock:
            return self._postings[phase]

    def messages(self, phase: Phase) -> int:
        """Messages sent so far in ``phase``."""
        with self._lock:
            return self._messages[phase]

    def hops(self, phase: Phase) -> int:
        """Total overlay hops traversed so far in ``phase``."""
        with self._lock:
            return self._hops[phase]

    def reset(self) -> None:
        """Zero every counter (the phase is preserved)."""
        with self._lock:
            self._postings.clear()
            self._messages.clear()
            self._hops.clear()
            self._by_kind.clear()

    # -- window registry (called by TrafficWindow) ------------------------------

    def _attach(self, window: "TrafficWindow") -> None:
        ref = weakref.ref(window)
        if window.scope == "global":
            with self._lock:
                self._global_windows.append(ref)
        else:
            self._thread_windows().append(ref)

    def _detach(self, window: "TrafficWindow") -> None:
        def prune(refs: list["weakref.ref[TrafficWindow]"]) -> None:
            refs[:] = [
                ref for ref in refs
                if ref() is not None and ref() is not window
            ]

        if window.scope == "global":
            with self._lock:
                prune(self._global_windows)
        else:
            prune(self._thread_windows())


class _ThreadState:
    """One thread's accounting state, read once per :meth:`record`."""

    __slots__ = ("phase_override", "windows")

    def __init__(self) -> None:
        #: Phase set by :meth:`TrafficAccounting.phase_scope`, if any.
        self.phase_override: Phase | None = None
        #: Open thread-scoped windows (weak references).
        self.windows: list["weakref.ref[TrafficWindow]"] = []


class TrafficWindow:
    """A live measurement window over a :class:`TrafficAccounting`.

    Accumulates every message recorded while open (all threads' messages
    for ``scope="global"``, only the opening thread's for
    ``scope="thread"``); :attr:`delta` reads the accumulated counters
    (frozen once the window is closed, so the delta is stable afterwards).
    """

    def __init__(
        self, accounting: TrafficAccounting, scope: str = "global"
    ) -> None:
        if scope not in ("global", "thread"):
            raise ValueError(
                f"scope must be 'global' or 'thread', got {scope!r}"
            )
        self._accounting = accounting
        self.scope = scope
        self._postings: Counter[Phase] = Counter()
        self._messages: Counter[Phase] = Counter()
        self._hops: Counter[Phase] = Counter()
        self._by_kind: Counter[MessageKind] = Counter()
        self._frozen: TrafficSnapshot | None = None
        accounting._attach(self)

    def _absorb(self, phase: Phase, message: Message) -> None:
        """Fold one recorded message into the window's accumulators.

        Called by :meth:`TrafficAccounting.record` — under the accounting
        lock for global-scoped windows, lock-free from the owning thread
        for thread-scoped ones.
        """
        self._postings[phase] += message.postings
        self._messages[phase] += 1
        self._hops[phase] += message.hops
        self._by_kind[message.kind] += 1

    def _materialize(self) -> TrafficSnapshot:
        return TrafficSnapshot(
            postings_by_phase=dict(self._postings),
            messages_by_phase=dict(self._messages),
            hops_by_phase=dict(self._hops),
            messages_by_kind=dict(self._by_kind),
        )

    def __enter__(self) -> "TrafficWindow":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> TrafficSnapshot:
        """Freeze the window; returns the final delta."""
        if self._frozen is None:
            self._accounting._detach(self)
            if self.scope == "global":
                # Copy under the lock so a concurrent record() cannot
                # interleave with the freeze.
                with self._accounting._lock:
                    self._frozen = self._materialize()
            else:
                self._frozen = self._materialize()
        return self._frozen

    @property
    def delta(self) -> TrafficSnapshot:
        """Traffic accumulated since the window opened."""
        if self._frozen is not None:
            return self._frozen
        if self.scope == "global":
            with self._accounting._lock:
                return self._materialize()
        return self._materialize()


def empty_snapshot() -> TrafficSnapshot:
    """An all-zero snapshot (cache hits, unmeasured operations)."""
    return TrafficSnapshot(
        postings_by_phase={},
        messages_by_phase={},
        hops_by_phase={},
        messages_by_kind={},
    )


def merge_snapshots(*snapshots: TrafficSnapshot) -> TrafficSnapshot:
    """Sum every counter across ``snapshots``.

    Used to accumulate one logical operation's traffic out of several
    measurement windows — e.g. a peer's per-phase indexing windows
    opened round by round on whichever shard worker staged its inserts.
    """
    postings: Counter[Phase] = Counter()
    messages: Counter[Phase] = Counter()
    hops: Counter[Phase] = Counter()
    by_kind: Counter[MessageKind] = Counter()
    for snapshot in snapshots:
        postings.update(snapshot.postings_by_phase)
        messages.update(snapshot.messages_by_phase)
        hops.update(snapshot.hops_by_phase)
        by_kind.update(snapshot.messages_by_kind)
    return TrafficSnapshot(
        postings_by_phase=dict(postings),
        messages_by_phase=dict(messages),
        hops_by_phase=dict(hops),
        messages_by_kind=dict(by_kind),
    )


def diff_snapshots(
    before: TrafficSnapshot, after: TrafficSnapshot
) -> TrafficSnapshot:
    """Return ``after - before`` for every counter (measurement windows)."""
    def sub(a: dict, b: dict) -> dict:
        return {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}

    return TrafficSnapshot(
        postings_by_phase=sub(
            after.postings_by_phase, before.postings_by_phase
        ),
        messages_by_phase=sub(
            after.messages_by_phase, before.messages_by_phase
        ),
        hops_by_phase=sub(after.hops_by_phase, before.hops_by_phase),
        messages_by_kind=sub(after.messages_by_kind, before.messages_by_kind),
    )
