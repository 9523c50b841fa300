"""Incremental cross-shard merge: grid-aligned prefix/suffix partials.

The coordinator recovers exact global rank probabilities by convolving
per-shard count-above-threshold polynomials.  Pairing every shard with
every other shard would cost O(S²) row convolutions and re-derive the
gathers and sort order on every shard update.  :class:`MergeEngine`, the
coordinator's only merge path, instead keeps partial products on one
shared score grid:

* every shard's count table is gathered once onto the **global descending
  score grid** (the scores of the database's one store, in score order),
  so cross-shard ``prefix_indices`` lookups index a single shared grid;
* the engine keeps ``prefix[i] = shard_0 ⊛ … ⊛ shard_i`` and
  ``suffix[i] = shard_i ⊛ … ⊛ shard_{S-1}`` rows and serves shard ``i``'s
  "all-others" factor as ``prefix[i-1] ⊛ suffix[i+1]`` gathered at the
  shard's own grid positions;
* a full merge costs O(S) row convolutions (≈ ``4·S``) instead of
  ``S·(S-1)``.

Every partial is **support-bounded**.  It holds only its live rows: the
rows before its support, past which every row is exactly ``0.0``.  A row
of a product past either factor's support is a sum of ``0.0 × finite``
terms, so it is exactly ``0.0`` too, and no tolerance is involved.  A
convolution therefore runs only over the rows from its first stale row
to the lesser of its factors' supports, and no row past that bound is
computed, copied or gathered.  The product's own support, which may end
sooner, is read from the rows just convolved, never from a scan of a
whole matrix.  A shard's count table is cut at its own support
(:attr:`~repro.sharding.summary.ShardRankSummary.prefix_table`), and the
merged result is handed over as its live rows, whose count is the merged
support.  On 6000 tuples over 4 shards with ``max_rank = 10`` the merged
support is about 750 rows.

An incremental merge recomputes only the **rows** an update reaches.  Row
``m`` of a shard's count table depends only on the shard's first ``m``
alternatives, so when the first changed alternative of a shard sits at
global grid row ``g``, every grid row at or above ``g`` of its aligned
table -- and of every prefix/suffix product containing it -- is unchanged.
The engine finds that alternative from content: a shard whose summary
is the one it last merged (summaries are memoised per shard version) is
unchanged, and otherwise its score-ordered probabilities are compared
with the ones it last merged
(:meth:`~repro.sharding.summary.ShardRankSummary.seed_prefix_table`, the
rule the worker's row-suffix IPC delta uses).  A new summary with the
same content (a refetched one, a probability rewritten to its old value)
recomputes nothing.  The same call seeds a changed shard's summary from
the one last merged, so its own prefix table re-sweeps only from the
sweep's grid line at or before that alternative's row.
The engine then re-convolves the rows of the stale prefix/suffix
products, of each shard's all-others rows and of its final rank rows
from the first stale row to the factors' support, and splices them
under the reused rows above.  An update below every factor's support
convolves nothing.  The kernels are row-local, so the spliced
result has the same bits as a full merge.  A full merge is the same
computation with every row stale.

Shards are tuple-independent: a shard's local rank rows are its own
prefix table, one row per tuple.  (A sharded block-independent database
reads its rank matrix off its one store instead, so it never merges.)
Every shard's final rows are then placed at their keys' merged rows
(:meth:`~repro.engine.backends.Backend.scatter_rows`).
No cached row is ever written into: a refresh replaces rows, because the
pure backend's gathers share row objects.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sharding.summary import ShardRankSummary, splice_live_rows


@dataclass(frozen=True)
class MergeStatsSnapshot:
    """Counters of the coordinator's merge engine at one instant.

    ``convolutions`` counts :meth:`~repro.engine.backends.Backend.\
convolve_rows` calls issued by the engine (the backend keeps its own
    independent ``kernel_calls`` tally) and ``convolved_rows`` the rows
    those calls convolved; ``incremental_merges`` reused cached
    prefix/suffix partials, ``full_merges`` rebuilt the grid state, and
    ``rebuild_merges`` counts from-scratch merges of a pinned snapshot at a
    superseded vector (through a throwaway engine, whose own counters are
    not folded in).  Subtracting two snapshots gives the counters of the
    interval between them.
    """

    merges: int = 0
    full_merges: int = 0
    incremental_merges: int = 0
    rebuild_merges: int = 0
    convolutions: int = 0
    convolved_rows: int = 0
    partials_reused: int = 0
    snapshot_reads: int = 0
    snapshot_evictions: int = 0

    def __sub__(self, other: "MergeStatsSnapshot") -> "MergeStatsSnapshot":
        return MergeStatsSnapshot(
            **{
                field.name: getattr(self, field.name)
                - getattr(other, field.name)
                for field in fields(self)
            }
        )


class _GridState:
    """Cached partial products for one truncation (``max_rank``).

    Every cached partial holds only its live rows: the rows before its
    support, past which each row is exactly ``0.0``.
    """

    __slots__ = (
        "backend_name",
        "summaries",
        "grid",
        "index_maps",
        "positions",
        "targets",
        "aligned",
        "prefix",
        "suffix",
        "others",
        "locals",
        "finals",
        "store",
    )

    def __init__(self, shard_count: int) -> None:
        self.backend_name: str = ""
        #: Each shard's last merged summary: the content the cached rows
        #: were computed from.
        self.summaries: List[Any] = [None] * shard_count
        self.grid: Sequence[float] = []
        self.index_maps: List[Any] = []
        self.positions: List[Any] = []
        #: Per shard, the merged row of each of its final rows' keys.
        self.targets: List[Any] = []
        self.aligned: List[Any] = [None] * shard_count
        self.prefix: List[Any] = [None] * shard_count
        self.suffix: List[Any] = [None] * shard_count
        self.others: List[Any] = [None] * shard_count
        #: Per-shard ``(local_rows, scale_factors)`` -- everything in the
        #: final-rows computation that depends only on the shard's own
        #: content.
        self.locals: List[Any] = [None] * shard_count
        #: Per-shard scaled rank rows, one per tuple.
        self.finals: List[Any] = [None] * shard_count
        #: The store whose score order the grid is; its key list orders
        #: the merged rows.
        self.store: Any = None


class MergeEngine:
    """Versioned prefix/suffix partial-product cache behind a coordinator.

    One engine per coordinator, one :class:`_GridState` per requested
    truncation (bounded LRU).  A coordinator's engine only ever serves the
    *live* version vector -- pinned snapshot readers at older vectors merge
    through a throwaway engine so they cannot thrash the partials of
    current traffic.
    """

    def __init__(self, state_limit: int = 8) -> None:
        self._states: "OrderedDict[int, _GridState]" = OrderedDict()
        self._state_limit = max(1, state_limit)
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {
            field.name: 0 for field in fields(MergeStatsSnapshot)
        }

    def stats(self) -> MergeStatsSnapshot:
        """An immutable snapshot of the engine's counters."""
        return MergeStatsSnapshot(**self.counters)

    def clear(self) -> None:
        """Drop every cached grid state (explicit invalidation).

        Waits for a merge in progress, which updates its state in place.
        """
        with self._lock:
            self._states.clear()

    # ------------------------------------------------------------------
    # Merge entry point
    # ------------------------------------------------------------------
    def merge(
        self,
        summaries: Sequence[ShardRankSummary],
        max_rank: int,
        store: Any,
        backend: Any,
    ) -> Any:
        """Merge shard summaries into the global rank rows.

        ``store`` is the database's store the summaries view; the grid is
        its scores in decreasing order.  Returns the merged matrix's live
        rows: one row per key of the store (in its decreasing-score key
        order) up to the merged support, past which every row is exactly
        ``0.0``.  The row count of the result is that support.
        """
        # Readers on several threads share a coordinator's engine, whose
        # cached partials are updated in place: merges take turns.
        with self._lock:
            self.counters["merges"] += 1
            state = self._states.get(max_rank)
            if state is not None and not self._compatible(
                state, summaries, store, backend
            ):
                state = None
            if state is None:
                state = self._build_grid(summaries, store, backend)
                changes: List[Optional[Tuple[int, int]]] = [(0, 0)] * len(
                    summaries
                )
                self.counters["full_merges"] += 1
            else:
                changes = self._changes(state, summaries)
                self.counters["incremental_merges"] += 1
            self._states[max_rank] = state
            self._states.move_to_end(max_rank)
            while len(self._states) > self._state_limit:
                self._states.popitem(last=False)
            try:
                grid_rows = len(state.grid)
                aligned_from = [
                    grid_rows if change is None else change[0]
                    for change in changes
                ]
                self._refresh_chains(
                    state, summaries, aligned_from, max_rank, backend
                )
                for index, summary in enumerate(summaries):
                    others_from = min(
                        aligned_from[:index] + aligned_from[index + 1 :],
                        default=grid_rows,
                    )
                    self._refresh_finals(
                        state, index, summary, others_from, changes[index],
                        max_rank, backend,
                    )
            except BaseException:
                # A half-refreshed state would pass for current next time.
                self._states.pop(max_rank, None)
                raise
            state.summaries = list(summaries)
            return self._assemble(state, max_rank, backend)

    # ------------------------------------------------------------------
    # Grid state construction / refresh
    # ------------------------------------------------------------------
    def _compatible(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        store: Any,
        backend: Any,
    ) -> bool:
        """Whether the cached state's grid still describes these shards.

        A probability-only update keeps every score, block and key in
        place, so the grid, index maps, positions and row targets all stay
        valid; a score, block or key move (or a backend change) forces a
        full rebuild.  The store's probability patch shares every other
        column with the store the grid was built from, so
        :meth:`~repro.andxor.columns.FlatColumns.same_rows` is an identity
        check.
        """
        return (
            state.backend_name == backend.name
            and len(state.summaries) == len(summaries)
            and state.store.same_rows(store)
        )

    def _changes(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
    ) -> List[Optional[Tuple[int, int]]]:
        """Per shard, ``(grid_row, row)`` when its content changed since
        the last merge, else ``None``.

        ``row`` is the shard's first alternative whose probability
        changed, and ``grid_row`` the first stale row of its aligned
        table: the grid row below that alternative's.  The summary last
        merged is unchanged without a look; any other one is seeded from
        it, so its table re-sweeps only the rows below ``row``
        (:meth:`~repro.sharding.summary.ShardRankSummary.\
seed_prefix_table`).
        """
        changes: List[Optional[Tuple[int, int]]] = []
        for index, summary in enumerate(summaries):
            previous = state.summaries[index]
            change = None
            if summary is not previous:
                row = summary.seed_prefix_table(previous)
                if row < len(summary.probabilities):
                    grid_row = int(state.positions[index][row]) + 1
                    change = (grid_row, row)
            changes.append(change)
        return changes

    def _build_grid(
        self,
        summaries: Sequence[ShardRankSummary],
        store: Any,
        backend: Any,
    ) -> _GridState:
        """A state with the grid, index maps, positions and row targets
        set; the refresh of a full merge fills every cached row."""
        state = _GridState(len(summaries))
        state.backend_name = backend.name
        state.store = store
        grid = state.grid = store.backend.take_rows(store.scores, store.order)
        state.index_maps = [
            backend.index_vector(summary.prefix_indices(grid))
            for summary in summaries
        ]
        # A shard's own scores are a subsequence of the grid, so "grid
        # entries strictly above each score" is exactly each score's grid
        # position (scores are globally distinct).
        state.positions = [
            backend.index_vector(
                backend.descending_prefix_lengths(grid, summary.scores)
            )
            for summary in summaries
        ]
        # The merged matrix's rows are the store's keys, in order.
        row_of = store.key_index
        state.targets = [
            backend.index_vector([row_of[key] for key in summary.keys])
            for summary in summaries
        ]
        return state

    def _refresh_chains(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        aligned_from: Sequence[int],
        max_rank: int,
        backend: Any,
    ) -> None:
        """Re-gather the changed shards' aligned rows and re-convolve the
        stale prefix/suffix rows, from the first stale grid row to the
        factors' support.

        ``aligned_from[i]`` is the first stale grid row of shard ``i``'s
        aligned table (the grid size when it is unchanged, 0 on a full
        merge).  ``prefix[j]`` contains shards ``0..j``, so its rows go
        stale from the least ``aligned_from`` over those shards;
        ``suffix[j]`` contains ``j..S-1``, so over those.  Every row above
        is reused.  ``prefix[S-1]`` / ``suffix[0]`` cover all shards and
        are never consumed, so the chains stop one short of them.
        """
        count = len(summaries)
        grid_rows = len(state.grid)
        for index, start in enumerate(aligned_from):
            if start < grid_rows:
                summary = summaries[index]
                index_map = state.index_maps[index]
                # Grid rows whose threshold lies past the table's live
                # rows are zero; the index map never decreases.
                stop = bisect_left(index_map, len(summary.prefix_table))
                tail = None
                if start < stop:
                    tail = summary.aligned_count_table(
                        state.grid, backend.slice_rows(index_map, start, stop)
                    )
                state.aligned[index] = self._splice(
                    state.aligned[index], start, tail, max_rank, backend
                )
        start = grid_rows
        for index in range(count - 1):
            start = min(start, aligned_from[index])
            if start >= grid_rows:
                continue
            state.prefix[index] = (
                state.aligned[0]
                if index == 0
                else self._product(
                    state.prefix[index], start, state.prefix[index - 1],
                    state.aligned[index], max_rank, backend,
                )
            )
        start = grid_rows
        for index in range(count - 1, 0, -1):
            start = min(start, aligned_from[index])
            if start >= grid_rows:
                continue
            state.suffix[index] = (
                state.aligned[index]
                if index == count - 1
                else self._product(
                    state.suffix[index], start, state.aligned[index],
                    state.suffix[index + 1], max_rank, backend,
                )
            )

    def _product(
        self,
        old: Any,
        start: int,
        left: Any,
        right: Any,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """``old``'s rows above ``start`` over ``left ⊛ right`` from
        ``start`` on.  A row past either factor's support is a sum of
        ``0.0 × finite`` terms, exactly ``0.0``, so only the rows up to
        the lesser support are convolved."""
        stop = min(len(left), len(right))
        tail = None
        if start < stop:
            tail = self._convolve(
                backend.slice_rows(left, start, stop),
                backend.slice_rows(right, start, stop),
                max_rank,
                backend,
            )
        return self._splice(old, start, tail, max_rank, backend)

    @staticmethod
    def _splice(
        old: Any, start: int, tail: Any, width: int, backend: Any
    ) -> Any:
        """The live rows of ``old``'s rows above ``start`` over the rows
        just computed from ``start`` on (``None`` when none is live).  The
        new support is read from those rows alone."""
        if tail is not None:
            tail = backend.slice_rows(tail, 0, backend.row_support(tail))
        return splice_live_rows(backend, old, start, tail, width)

    # ------------------------------------------------------------------
    # Per-shard finals
    # ------------------------------------------------------------------
    def _refresh_finals(
        self,
        state: _GridState,
        index: int,
        summary: ShardRankSummary,
        others_from: int,
        change: Optional[Tuple[int, int]],
        max_rank: int,
        backend: Any,
    ) -> None:
        """Re-convolve shard ``index``'s stale all-others and final rows.

        The all-others rows read the other shards' chains at the shard's
        grid positions, so they go stale from the first local row whose
        position reaches ``others_from`` (the least stale grid row over
        the other shards).  The final rows go stale from there, or from
        the shard's own changed tuple, whose scale factor moved.
        """
        rows = len(summary.probabilities)
        others_row = (
            bisect_left(state.positions[index], others_from)
            if others_from < len(state.grid)
            else rows
        )
        if others_row < rows:
            state.others[index] = self._others_rows(
                state, index, others_row, max_rank, backend
            )
        else:
            self.counters["partials_reused"] += 1
        final_row = others_row
        if change is not None:
            state.locals[index] = self._local_parts(summary, backend)
            final_row = min(final_row, change[1])
        if final_row >= rows:
            self.counters["partials_reused"] += 1
            return
        state.finals[index] = self._scaled_rows(
            state, index, final_row, max_rank, backend
        )

    def _others_rows(
        self,
        state: _GridState,
        index: int,
        start: int,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """``prefix[index-1] ⊛ suffix[index+1]`` at the shard's positions,
        from its local row ``start`` to the positions the chains' support
        reaches; ``None`` for a lone shard, which has no others."""
        factors = []
        if index > 0:
            factors.append(state.prefix[index - 1])
        if index < len(state.aligned) - 1:
            factors.append(state.suffix[index + 1])
        if not factors:
            return None
        positions = state.positions[index]
        stop = bisect_left(positions, min(len(factor) for factor in factors))
        tail = None
        if start < stop:
            at = backend.slice_rows(positions, start, stop)
            gathered = [backend.take_rows(factor, at) for factor in factors]
            tail = (
                gathered[0]
                if len(gathered) == 1
                else self._convolve(gathered[0], gathered[1], max_rank,
                                    backend)
            )
        return self._splice(state.others[index], start, tail, max_rank,
                            backend)

    @staticmethod
    def _local_parts(
        summary: ShardRankSummary, backend: Any
    ) -> Tuple[Any, Any]:
        """The shard-content-only inputs of :meth:`_scaled_rows`:
        ``(local_rows, scale_factors)``.  Local row ``r`` is the count
        distribution of the ``r`` tuples above tuple ``r`` -- row ``r`` of
        the shard's prefix table -- and its factor is tuple ``r``'s
        probability."""
        factors = summary.probabilities
        local = backend.slice_rows(summary.prefix_table, 0, len(factors))
        return local, factors

    def _scaled_rows(
        self,
        state: _GridState,
        index: int,
        start: int,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """Local rank rows ⊛ all-others factor, scaled by each
        tuple's probability, from local row ``start`` to the lesser
        of the two factors' support."""
        local, factors = state.locals[index]
        others = state.others[index]
        stop = len(local) if others is None else min(len(local), len(others))
        tail = None
        if start < stop:
            tail = backend.slice_rows(local, start, stop)
            if others is not None:
                tail = self._convolve(
                    tail, backend.slice_rows(others, start, stop), max_rank,
                    backend,
                )
            tail = backend.scale_rows(
                tail, backend.slice_rows(factors, start, stop)
            )
        return self._splice(state.finals[index], start, tail, max_rank,
                            backend)

    def _assemble(
        self, state: _GridState, max_rank: int, backend: Any
    ) -> Any:
        """The merged matrix's live rows: every shard's final rows placed
        at their keys' merged rows, up to the last row any of them reaches
        and cut at the support read from those rows.

        A shard's final rows run in score order, so its last live row
        reaches furthest.
        """
        parts, targets, reach = [], [], 0
        for finals, shard_targets in zip(state.finals, state.targets):
            live = len(finals)
            if not live:
                continue
            parts.append(finals)
            targets.append(backend.slice_rows(shard_targets, 0, live))
            reach = max(reach, int(shard_targets[live - 1]) + 1)
        if not parts:
            return splice_live_rows(backend, None, 0, None, max_rank)
        merged = backend.scatter_rows(
            backend.stack_matrices(parts), backend.concatenate(targets), reach
        )
        return backend.slice_rows(merged, 0, backend.row_support(merged))

    def _convolve(
        self, a: Any, b: Any, out_len: int, backend: Any
    ) -> Any:
        self.counters["convolutions"] += 1
        self.counters["convolved_rows"] += len(a)
        return backend.convolve_rows(a, b, out_len)
