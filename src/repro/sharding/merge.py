"""Incremental cross-shard merge: grid-aligned prefix/suffix partials.

The coordinator recovers exact global rank probabilities by convolving
per-shard count-above-threshold polynomials.  Pairing every shard with
every other shard would cost O(S²) row convolutions and re-derive the
gathers and sort order on every shard update.  :class:`MergeEngine`, the
coordinator's only merge path, instead keeps partial products on one
shared score grid:

* every shard's count table is gathered once onto the **global descending
  score grid** (the merged layout's alternative stream), so cross-shard
  ``prefix_indices`` lookups index a single shared grid;
* the engine keeps ``prefix[i] = shard_0 ⊛ … ⊛ shard_i`` and
  ``suffix[i] = shard_i ⊛ … ⊛ shard_{S-1}`` rows, keyed by the per-shard
  version tokens, and serves shard ``i``'s "all-others" factor as
  ``prefix[i-1] ⊛ suffix[i+1]`` gathered at the shard's own grid
  positions;
* a full merge costs O(S) row convolutions (≈ ``4·S``) instead of
  ``S·(S-1)``, and swapping one shard's summary recomputes only the
  partial-product rows containing that shard plus each shard's final rank
  rows -- index maps, grid positions, the stacked row order and every
  untouched prefix/suffix row are reused from cache.

Tuple-independent shards take the batched path (local rows are the shard's
own prefix table); block-independent shards build one row per alternative
(own block excluded) and collapse them per key with
:meth:`~repro.engine.backends.Backend.sum_rows_by_group`, so mixed
shardings merge on the same grid machinery.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.sharding.summary import ShardRankSummary


@dataclass(frozen=True)
class MergeStatsSnapshot:
    """Counters of the coordinator's merge engine at one instant.

    ``convolutions`` counts :meth:`~repro.engine.backends.Backend.\
convolve_rows` calls issued by the engine (the backend keeps its own
    independent ``kernel_calls`` tally); ``incremental_merges`` reused
    cached prefix/suffix partials, ``full_merges`` rebuilt the grid state,
    and ``rebuild_merges`` counts from-scratch merges of a pinned snapshot
    at a superseded vector (through a throwaway engine, whose own
    counters are not folded in).  Subtracting two snapshots gives the
    counters of the interval between them.
    """

    merges: int = 0
    full_merges: int = 0
    incremental_merges: int = 0
    rebuild_merges: int = 0
    convolutions: int = 0
    partials_reused: int = 0
    layout_patches: int = 0
    layout_rebuilds: int = 0
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
    """Cached partial products for one truncation (``max_rank``)."""

    __slots__ = (
        "backend_name",
        "tokens",
        "scores",
        "grid",
        "index_maps",
        "positions",
        "aligned",
        "prefix",
        "suffix",
        "others",
        "others_keys",
        "finals",
        "final_keys",
        "locals",
        "local_keys",
        "order",
        "keys",
    )

    def __init__(self, shard_count: int) -> None:
        self.backend_name: str = ""
        self.tokens: Tuple[Any, ...] = ()
        self.scores: List[List[float]] = []
        self.grid: List[float] = []
        self.index_maps: List[Any] = []
        self.positions: List[Any] = []
        self.aligned: List[Any] = [None] * shard_count
        self.prefix: List[Any] = [None] * shard_count
        self.suffix: List[Any] = [None] * shard_count
        self.others: List[Any] = [None] * shard_count
        self.others_keys: List[Any] = [None] * shard_count
        self.finals: List[Any] = [None] * shard_count
        self.final_keys: List[Any] = [None] * shard_count
        #: Per-shard ``(local_rows, scale_factors, groups)`` -- everything
        #: in the final-rows computation that depends only on the shard's
        #: own content, cached by version token.
        self.locals: List[Any] = [None] * shard_count
        self.local_keys: List[Any] = [None] * shard_count
        self.order: Any = []
        self.keys: List[Hashable] = []


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
        #: The coordinator's merged-layout patch base: a ``(shard
        #: fragments, merged layout)`` pair, replaced as one unit.
        self.layout_base: Optional[Tuple[List[Any], Any]] = None
        self.counters: Dict[str, int] = {
            field.name: 0 for field in fields(MergeStatsSnapshot)
        }

    def stats(self) -> MergeStatsSnapshot:
        """An immutable snapshot of the engine's counters."""
        return MergeStatsSnapshot(**self.counters)

    def clear(self) -> None:
        """Drop every cached grid state (explicit invalidation)."""
        self._states.clear()
        self.layout_base = None

    # ------------------------------------------------------------------
    # Merge entry point
    # ------------------------------------------------------------------
    def merge(
        self,
        summaries: Sequence[ShardRankSummary],
        tokens: Sequence[Any],
        max_rank: int,
        grid_scores: List[float],
        keys_order: List[Hashable],
        backend: Any,
    ) -> Any:
        """Merge shard summaries into the global rank rows.

        ``tokens`` are per-shard version tokens aligned with ``summaries``;
        they key every cached partial, so an unchanged token means the
        shard's cached contribution is reused verbatim.  Returns the
        native matrix, one row per key of ``keys_order`` (the merged
        decreasing-score key order).
        """
        # Readers on several threads share a coordinator's engine, whose
        # cached partials are updated in place: merges take turns.
        with self._lock:
            self.counters["merges"] += 1
            tokens = tuple(tokens)
            count = len(summaries)
            state = self._states.get(max_rank)
            if state is not None and not self._compatible(
                state, summaries, tokens, keys_order, backend
            ):
                state = None
            if state is None:
                state = self._build_grid(
                    summaries, max_rank, grid_scores, keys_order, backend,
                    count,
                )
                self._states[max_rank] = state
                self.counters["full_merges"] += 1
            else:
                self._refresh_chains(
                    state, summaries, tokens, max_rank, backend
                )
                self.counters["incremental_merges"] += 1
            self._states.move_to_end(max_rank)
            while len(self._states) > self._state_limit:
                self._states.popitem(last=False)
            state.tokens = tokens
            parts = [
                self._shard_final(
                    state, index, summary, tokens, max_rank, backend
                )
                for index, summary in enumerate(summaries)
            ]
            return backend.take_rows(
                backend.stack_matrices(parts), state.order
            )

    # ------------------------------------------------------------------
    # Grid state construction / refresh
    # ------------------------------------------------------------------
    def _compatible(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        tokens: Tuple[Any, ...],
        keys_order: List[Hashable],
        backend: Any,
    ) -> bool:
        """Whether the cached state's grid still describes these shards.

        A probability-only update keeps every score and key in place, so
        the grid, index maps, positions and row order all stay valid; a
        score or key move (or a shard-count / backend change) forces a
        full rebuild.  The coordinator shares one key-order list across
        patched layouts, so the key check is an identity hit.
        """
        if state.backend_name != backend.name:
            return False
        if len(state.tokens) != len(tokens):
            return False
        if state.keys is not keys_order and state.keys != keys_order:
            return False
        for cached, summary in zip(state.scores, summaries):
            fresh = summary.layout.scores
            if fresh is not cached and fresh != cached:
                return False
        return True

    def _build_grid(
        self,
        summaries: Sequence[ShardRankSummary],
        max_rank: int,
        grid_scores: List[float],
        keys_order: List[Hashable],
        backend: Any,
        count: int,
    ) -> _GridState:
        state = _GridState(count)
        state.backend_name = backend.name
        state.grid = grid_scores
        state.scores = [summary.layout.scores for summary in summaries]
        state.index_maps = [
            backend.index_vector(summary.prefix_indices(grid_scores))
            for summary in summaries
        ]
        # A shard's own scores are a subsequence of the grid, so "grid
        # entries strictly above each score" is exactly each score's grid
        # position (scores are globally distinct).
        state.positions = [
            backend.index_vector(
                backend.descending_prefix_lengths(grid_scores, scores)
            )
            for scores in state.scores
        ]
        for index, summary in enumerate(summaries):
            state.aligned[index] = summary.aligned_count_table(
                grid_scores, state.index_maps[index]
            )
        self._chain(state, range(0, count - 1), range(count - 1, 0, -1),
                    max_rank, backend)
        stacked_keys: List[Hashable] = []
        for summary in summaries:
            stacked_keys.extend(summary.layout.keys)
        position_of = {key: row for row, key in enumerate(stacked_keys)}
        state.order = backend.index_vector(
            [position_of[key] for key in keys_order]
        )
        state.keys = keys_order
        return state

    def _refresh_chains(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        tokens: Tuple[Any, ...],
        max_rank: int,
        backend: Any,
    ) -> None:
        """Re-gather changed shards and recompute only the stale chain rows.

        ``prefix[i]`` contains shards ``0..i`` and is stale iff ``i ≥``
        the lowest changed shard; ``suffix[i]`` contains ``i..S-1`` and is
        stale iff ``i ≤`` the highest changed one.  Everything else is
        reused from cache.
        """
        changed = [
            index
            for index, token in enumerate(tokens)
            if token != state.tokens[index]
        ]
        if not changed:
            return
        for index in changed:
            state.aligned[index] = summaries[index].aligned_count_table(
                state.grid, state.index_maps[index]
            )
            # Re-anchor the identity check so the next merge's compatibility
            # probe hits on ``is`` instead of an O(n) list compare.
            state.scores[index] = summaries[index].layout.scores
        count = len(tokens)
        low, high = min(changed), max(changed)
        self._chain(
            state,
            range(low, count - 1),
            range(min(high, count - 1), 0, -1),
            max_rank,
            backend,
        )

    def _chain(
        self,
        state: _GridState,
        prefix_range: Any,
        suffix_range: Any,
        max_rank: int,
        backend: Any,
    ) -> None:
        """(Re)compute prefix rows over ``prefix_range`` ascending and
        suffix rows over ``suffix_range`` descending.

        ``prefix[S-1]`` / ``suffix[0]`` cover all shards and are never
        consumed, so the ranges stop one short of them.
        """
        count = len(state.aligned)
        for index in prefix_range:
            if index == 0:
                state.prefix[0] = state.aligned[0]
            else:
                state.prefix[index] = self._convolve(
                    state.prefix[index - 1],
                    state.aligned[index],
                    max_rank,
                    backend,
                )
        for index in suffix_range:
            if index == count - 1:
                state.suffix[index] = state.aligned[index]
            else:
                state.suffix[index] = self._convolve(
                    state.aligned[index],
                    state.suffix[index + 1],
                    max_rank,
                    backend,
                )

    # ------------------------------------------------------------------
    # Per-shard finals
    # ------------------------------------------------------------------
    def _shard_final(
        self,
        state: _GridState,
        index: int,
        summary: ShardRankSummary,
        tokens: Tuple[Any, ...],
        max_rank: int,
        backend: Any,
    ) -> Any:
        """Shard ``index``'s final rank rows, reused when nothing moved."""
        count = len(tokens)
        others_key = tokens[:index] + tokens[index + 1 :]
        if state.others_keys[index] != others_key:
            state.others[index] = self._others_rows(
                state, index, count, max_rank, backend
            )
            state.others_keys[index] = others_key
        else:
            self.counters["partials_reused"] += 1
        final_key = (tokens[index], others_key)
        if state.final_keys[index] != final_key:
            if state.local_keys[index] != tokens[index]:
                state.locals[index] = self._local_parts(summary, backend)
                state.local_keys[index] = tokens[index]
            state.finals[index] = self._final_rows(
                state.locals[index], state.others[index], max_rank, backend
            )
            state.final_keys[index] = final_key
        else:
            self.counters["partials_reused"] += 1
        return state.finals[index]

    def _others_rows(
        self,
        state: _GridState,
        index: int,
        count: int,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """``prefix[index-1] ⊛ suffix[index+1]`` at the shard's positions."""
        positions = state.positions[index]
        left = (
            backend.take_rows(state.prefix[index - 1], positions)
            if index > 0
            else None
        )
        right = (
            backend.take_rows(state.suffix[index + 1], positions)
            if index < count - 1
            else None
        )
        if left is None:
            return right
        if right is None:
            return left
        return self._convolve(left, right, max_rank, backend)

    def _local_parts(
        self, summary: ShardRankSummary, backend: Any
    ) -> Tuple[Any, Any, Any]:
        """The shard-content-only inputs of :meth:`_final_rows`.

        ``(local_rows, scale_factors, groups)`` where ``groups`` is
        ``None`` for tuple-independent shards and ``(group_vector,
        group_count)`` for block-independent ones.  Depends only on the
        shard's own summary, so it is cached per version token and an
        incremental re-merge rebuilds it for the changed shard alone.
        """
        layout = summary.layout
        if layout.independent:
            local = backend.take_rows(
                summary.prefix_table, range(len(layout.keys))
            )
            factors = backend.factor_vector(layout.probabilities)
            return local, factors, None
        # Block-independent: one row per alternative (own block excluded),
        # scaled by the alternative's probability and summed per key.  Row
        # ``r`` has exactly ``r`` alternatives above it.
        local = backend.matrix_from_rows(
            [
                summary.prefix_polynomial(row, block)
                for row, block in enumerate(layout.blocks)
            ]
        )
        factors = backend.factor_vector(layout.probabilities)
        groups = (backend.index_vector(layout.blocks), len(layout.keys))
        return local, factors, groups

    def _final_rows(
        self,
        local_parts: Tuple[Any, Any, Any],
        others_rows: Any,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """Local rank rows ⊛ all-others factor, collapsed to per-key rows."""
        local, factors, groups = local_parts
        rows = (
            self._convolve(local, others_rows, max_rank, backend)
            if others_rows is not None
            else local
        )
        rows = backend.scale_rows(rows, factors)
        if groups is None:
            return rows
        return backend.sum_rows_by_group(rows, groups[0], groups[1])

    def _convolve(
        self, a: Any, b: Any, out_len: int, backend: Any
    ) -> Any:
        self.counters["convolutions"] += 1
        return backend.convolve_rows(a, b, out_len)
