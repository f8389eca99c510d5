"""The sharded, multi-worker indexing pipeline.

HDK construction is embarrassingly parallel per peer — each peer
extracts and classifies its own discriminative keys over purely local
documents — yet the outcome of the *publication* side of the protocol is
order-sensitive: merge order decides NDK truncation contents, DK->NDK
transition timing, and notification fan-out.  The pipeline exploits the
first fact without disturbing the second by running every round in three
barriered stages over a deterministic shard plan
(:func:`repro.indexing.shards.plan_shards`):

1. **extract** — candidate generation per peer, fanned out shard-by-shard
   on a thread pool (pure CPU, zero shared mutation);
2. **stage** — transmission of the round's INSERT messages (message
   logging + simulated link latency), also fanned out: concurrent
   staging overlaps the per-hop WAN latency a real DHT pays, which is
   where the multi-worker build throughput comes from;
3. **apply** — the merges at the responsible peers, executed by the
   coordinating thread in the sequential protocol's exact order (peer
   by peer, key by key).

Because stage 3 is the only stage that mutates the index — and runs in
sequential order — the resulting :class:`~repro.index.global_index.GlobalKeyIndex`
contents, term-statistics directory (including iteration order), per-peer
:class:`~repro.hdk.indexer.IndexingReport` fields, and global traffic
totals are **byte-identical at any worker/shard count**, including
``workers=1``, the sequential reference execution.  For ``hdk_disk``,
spill flushes ride the apply stage, so segment writes are serialized
through the :class:`~repro.store.store.SegmentStore` without ever
blocking extraction.

Per-peer traffic attribution uses the thread-scoped accounting windows
introduced for the query path (PR 3): each peer's stage and apply
operations run under their own ``measure(scope="thread")`` window on
whichever thread executes them, so
:attr:`~repro.hdk.indexer.IndexingReport.traffic` is exact even while
other shards stage concurrently.

Failure semantics: extraction errors surface before anything of the
failed round is staged or applied — the global index is left exactly as
the sequential protocol would leave it after the last completed round,
no measurement window stays attached, and no traffic of the failed
round is recorded.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

from ..config import HDKParameters
from ..errors import ConfigurationError, KeyGenerationError
from ..hdk.indexer import (
    IndexingReport,
    PeerIndexer,
    entry_of,
    run_expansion_cascade,
)
from ..index.global_index import GlobalKeyIndex, KeyStatus
from ..net.accounting import (
    Phase,
    TrafficAccounting,
    TrafficSnapshot,
    merge_snapshots,
)
from .shards import Shard, plan_shards

__all__ = ["IndexingPipeline"]

T = TypeVar("T")


class IndexingPipeline:
    """Drives the distributed indexing protocol over sharded workers.

    Args:
        workers: thread-pool width for the extract and stage fan-outs;
            ``1`` (the default) runs everything inline on the calling
            thread — the sequential reference execution.
        num_shards: how many shards to partition the peers into;
            defaults to ``workers``.  More shards than workers queue on
            the pool (finer-grained balancing); the outcome is identical
            for any value because only the apply stage mutates state.
    """

    def __init__(self, workers: int = 1, num_shards: int | None = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if num_shards is not None and num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.workers = workers
        self.num_shards = num_shards

    # -- public drivers ----------------------------------------------------------

    def build(
        self,
        indexers: Sequence[PeerIndexer],
        params: HDKParameters,
    ) -> list[IndexingReport]:
        """Execute the full collaborative indexing protocol.

        Statistics publication first (very frequent terms must be known
        globally before round 1), then rounds of increasing key size
        with a global status reconciliation after each round — exactly
        the sequential protocol, with extraction and transmission fanned
        out per shard.

        Returns each peer's :class:`IndexingReport` (with exact
        per-peer ``traffic`` attached).
        """
        indexers = list(indexers)
        if not indexers:
            raise KeyGenerationError("no peers to index with")
        global_index = indexers[0].global_index
        global_index.set_phase(Phase.INDEXING)
        accounting = global_index.network.accounting
        traffic = [[] for _ in indexers]  # type: list[list[TrafficSnapshot]]

        with self._worker_pool() as pool:
            self._publish_statistics(indexers, accounting, traffic, pool)
            for key_size in range(1, params.s_max + 1):
                statuses_by_position = self._run_round(
                    indexers, key_size, accounting, traffic, pool
                )
                proposed: dict[frozenset[str], set[int]] = {}
                for position, statuses in enumerate(statuses_by_position):
                    for key in statuses:
                        proposed.setdefault(key, set()).add(position)
                    indexers[position].report.ndk_keys_by_size[
                        key_size
                    ] = sum(
                        1
                        for status in statuses.values()
                        if status is KeyStatus.NON_DISCRIMINATIVE
                    )
                self._reconcile(global_index, indexers, proposed)
        self._attach_traffic(indexers, traffic)
        return [indexer.report for indexer in indexers]

    def join(
        self,
        existing_indexers: Sequence[PeerIndexer],
        joining_indexers: Sequence[PeerIndexer],
        params: HDKParameters,
    ) -> list[IndexingReport]:
        """Index newly joined peers into an already-built global index.

        This is the paper's growth protocol ("peers joining the network
        and increasing the document collection"): the joining peers run
        the normal generation rounds (extraction and transmission
        sharded exactly like :meth:`build`), and any existing key their
        inserts push over ``DF_max`` triggers NDK notifications — the
        contributing peers then *expand* the key with co-occurring
        terms, which may cascade into further transitions.  The cascade
        runs sequentially over existing + joining peers — see
        :func:`repro.hdk.indexer.run_expansion_cascade` for why it is
        ordered work by construction.

        Document frequencies only grow, so the NDK set is monotone, the
        cascade terminates, and the grown index equals a fresh rebuild
        over the union collection with the same peer partition — except
        when a term's collection frequency crosses ``F_f`` during
        growth: a rebuild drops it from the key vocabulary, while the
        live system keeps the keys indexed before the crossing.  The
        incremental index is then a strict superset of the rebuilt one,
        and every common key still agrees on status, df and postings.

        Returns the reports of the joining peers.
        """
        existing = list(existing_indexers)
        joining = list(joining_indexers)
        if not joining:
            raise KeyGenerationError("no joining peers")
        global_index = joining[0].global_index
        global_index.set_phase(Phase.INDEXING)
        accounting = global_index.network.accounting
        # Discard transitions from the original build: its reconciliation
        # already delivered them.
        global_index.drain_transitions()
        traffic = [[] for _ in joining]  # type: list[list[TrafficSnapshot]]

        with self._worker_pool() as pool:
            self._publish_statistics(joining, accounting, traffic, pool)
            for key_size in range(1, params.s_max + 1):
                self._run_round(joining, key_size, accounting, traffic, pool)
        self._attach_traffic(joining, traffic)
        run_expansion_cascade(existing + joining, global_index, params)
        return [indexer.report for indexer in joining]

    # -- protocol stages ---------------------------------------------------------

    def _publish_statistics(
        self,
        indexers: list[PeerIndexer],
        accounting: TrafficAccounting,
        traffic: list[list[TrafficSnapshot]],
        pool: ThreadPoolExecutor | None,
    ) -> None:
        """Extract + send statistics per shard; aggregate in peer order."""

        def extract_and_send(position: int) -> object:
            indexer = indexers[position]
            statistics = indexer.extract_statistics()
            with accounting.measure(scope="thread") as window:
                indexer.send_statistics(statistics)
            traffic[position].append(window.delta)
            return statistics

        all_statistics = self._fan_out(
            len(indexers), extract_and_send, pool
        )
        # Aggregation order fixes the directory's iteration order (and
        # with it snapshot bytes), so it always runs in peer order.
        for indexer, statistics in zip(indexers, all_statistics):
            indexer.aggregate_statistics(statistics)

    def _run_round(
        self,
        indexers: list[PeerIndexer],
        key_size: int,
        accounting: TrafficAccounting,
        traffic: list[list[TrafficSnapshot]],
        pool: ThreadPoolExecutor | None,
    ) -> list[dict[frozenset[str], KeyStatus]]:
        """One generation round: extract and stage per shard (barriered),
        then apply every peer's merges in sequential order."""

        def extract(position: int) -> dict:
            return indexers[position].extract_round(key_size)

        candidates = self._fan_out(len(indexers), extract, pool)

        def stage(position: int) -> list:
            with accounting.measure(scope="thread") as window:
                staged = indexers[position].stage_round(candidates[position])
            traffic[position].append(window.delta)
            return staged

        staged_by_position = self._fan_out(len(indexers), stage, pool)

        statuses_by_position: list[dict[frozenset[str], KeyStatus]] = []
        for position, indexer in enumerate(indexers):
            with accounting.measure(scope="thread") as window:
                statuses = indexer.apply_round(
                    key_size, staged_by_position[position]
                )
            traffic[position].append(window.delta)
            statuses_by_position.append(statuses)
        return statuses_by_position

    @staticmethod
    def _reconcile(
        global_index: GlobalKeyIndex,
        indexers: list[PeerIndexer],
        proposed: dict[frozenset[str], set[int]],
    ) -> None:
        """A key inserted early in the round may have turned NDK after
        later inserts; deliver the final statuses to all proposers (the
        notification path already logged the messages)."""
        for key, proposer_positions in proposed.items():
            entry = entry_of(global_index, key)
            if entry is None:
                continue
            for position in proposer_positions:
                indexers[position].learn_status(key, entry.status)

    @staticmethod
    def _attach_traffic(
        indexers: list[PeerIndexer],
        traffic: list[list[TrafficSnapshot]],
    ) -> None:
        for indexer, snapshots in zip(indexers, traffic):
            indexer.report.add_traffic(merge_snapshots(*snapshots))

    # -- sharded execution -------------------------------------------------------

    def _shards_for(self, count: int) -> list[Shard]:
        return plan_shards(count, self.num_shards or self.workers)

    @contextmanager
    def _worker_pool(self) -> Iterator[ThreadPoolExecutor | None]:
        """One pool for a whole build/join (every fan-out stage reuses
        it instead of respawning threads); ``None`` when sequential."""
        if self.workers == 1:
            yield None
            return
        with ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-index",
        ) as pool:
            yield pool

    def _fan_out(
        self,
        count: int,
        task: Callable[[int], T],
        pool: ThreadPoolExecutor | None,
    ) -> list[T]:
        """Run ``task(position)`` for every position, shard by shard,
        returning results indexed by position.

        Without a pool (or with one item) everything runs inline in
        shard order; otherwise one pool task per shard.  All shards
        complete before any failure propagates, and when shards fail the
        error of the lowest-indexed one is raised — deterministic at any
        worker count.
        """
        results: list[T] = [None] * count  # type: ignore[list-item]

        def run_shard(shard: Shard) -> list[T]:
            return [task(position) for position in shard.members]

        shards = self._shards_for(count)
        if pool is None or count <= 1:
            for shard in shards:
                for position, value in zip(shard.members, run_shard(shard)):
                    results[position] = value
            return results
        errors: list[Exception] = []
        futures = [pool.submit(run_shard, shard) for shard in shards]
        for shard, future in zip(shards, futures):
            try:
                values = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                continue
            for position, value in zip(shard.members, values):
                results[position] = value
        if errors:
            raise errors[0]
        return results
