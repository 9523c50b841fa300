"""Batched Monte-Carlo estimation engine.

Section 6 of the paper proves several consensus problems hard, and the
prescribed fallback is sampling: draw possible worlds, average the distance
of a candidate answer against them.  The per-world sampler
(:mod:`repro.andxor.sampling`) walks the tree recursively once per draw;
this module replaces that scalar tail with a *batched* subsystem built on
the compute engine:

* :func:`flatten_tree` compiles an and/xor tree once into a
  :class:`FlattenedTree` -- the cumulative edge probabilities of every xor
  node plus, per leaf, the ``(xor index, child index)`` pairs its presence
  requires.  Sampling a world is then "one categorical draw per xor node";
  sampling ``S`` worlds is the same draws vectorized across the batch
  (:meth:`~repro.engine.backends.Backend.sample_xor_presence`, with a
  Bernoulli fast path for fully independent layouts).
* :class:`WorldBatch` wraps the resulting ``S × n_leaves`` presence matrix
  in the backend-native layout and offers membership marginals, world
  materialisation, and *vectorized* per-sample Top-k distances (footrule,
  Kendall, intersection, symmetric difference) against a candidate answer.
* :class:`MonteCarloSampler` ties it together with streaming mean/variance
  accumulation (:class:`StreamingMoments`) and normal-approximation
  confidence intervals (:class:`Estimate`).  Warm sessions reuse the
  flattened layout through :meth:`repro.session.QuerySession.sampler`.

Reproducibility
---------------
All randomness flows through one seedable ``random.Random`` generator:
pass ``rng=`` (a generator or an integer seed) explicitly, or set the
``REPRO_SEED`` environment variable to seed the process-wide default
generator (:func:`default_rng`).  The backends only ever consume 64-bit
seeds derived from that generator (:func:`derive_seed`), so batched and
per-world sampling are reproducible per backend; the two backends consume
different underlying generators and do not produce identical streams.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.backends import Backend

try:  # mirror repro.engine.backends: NumPy is optional, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on NumPy-free installs
    _np = None

RandomSource = Union[random.Random, int, None]
ScoreFunction = Callable[[Any], float]

_ENV_SEED = "REPRO_SEED"
_default_rng: Optional[random.Random] = None


def _topk_metric(metric: str) -> Any:
    """The :mod:`repro.metrics` record of a Top-k metric name."""
    from repro.metrics import TOPK  # lazy: engine sits below consensus

    record = TOPK.get(metric)
    if record is None:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {tuple(TOPK)}"
        )
    return record


def __getattr__(name: str) -> Any:
    # TOPK_METRICS is read from the registry on first use, because the
    # registry imports repro.consensus, which imports this module.
    if name == "TOPK_METRICS":
        from repro.metrics import TOPK

        return tuple(TOPK)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Seedable randomness plumbing
# ----------------------------------------------------------------------
def default_rng() -> random.Random:
    """The process-wide generator behind every ``rng=None`` sampling call.

    Created on first use; seeded from the ``REPRO_SEED`` environment
    variable when set (making every default-generator sampling run of the
    process reproducible), unseeded otherwise.
    """
    global _default_rng
    if _default_rng is None:
        import os

        seed_text = os.environ.get(_ENV_SEED)
        if seed_text:
            _default_rng = random.Random(int(seed_text))
        else:
            _default_rng = random.Random()
    return _default_rng


def reset_default_rng() -> None:
    """Drop the process-wide generator so ``REPRO_SEED`` is re-read.

    Mainly for tests that change the environment variable mid-process.
    """
    global _default_rng
    _default_rng = None


def resolve_rng(rng: RandomSource) -> random.Random:
    """Coerce ``rng`` (generator, integer seed or None) into a generator.

    ``None`` resolves to the shared :func:`default_rng`, so successive
    default calls continue one stream instead of re-seeding per call.
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return default_rng()
    return random.Random(rng)


def derive_seed(rng: random.Random) -> int:
    """A 64-bit seed for a backend kernel, drawn from ``rng``.

    Both backends consume only these derived seeds, so one Python-level
    generator threads through per-world walks and batched kernels alike.
    """
    return rng.getrandbits(64)


# ----------------------------------------------------------------------
# Flattened tree layout
# ----------------------------------------------------------------------
class FlattenedTree:
    """Flat sampling layout of an and/xor tree, computed once per tree.

    Attributes
    ----------
    cumulatives:
        Per xor node, the cumulative edge probabilities (a uniform draw
        beyond the last entry means the node produces nothing).
    constraints:
        Per leaf, the ``(xor index, child index)`` pairs that must all be
        drawn for the leaf to be present.  Leaves are sorted by decreasing
        score (stable), so the rank of a present leaf inside a sample is
        its running count along the leaf axis -- same-key leaves are
        mutually exclusive, and different keys have distinct scores.
    bernoulli:
        Per-leaf presence probabilities when every leaf is governed by its
        own private xor edge (pairwise-independent leaves); None when the
        general categorical path is required.
    score_error:
        None when the Top-k estimators are usable; otherwise the message
        explaining why they are not (unscored leaves, or cross-key score
        ties -- the same no-ties assumption the exact consensus path
        enforces).  Set-level queries work either way.
    """

    __slots__ = (
        "cumulatives",
        "constraints",
        "leaf_alternatives",
        "leaf_keys",
        "leaf_scores",
        "keys",
        "bernoulli",
        "score_error",
        "_key_columns",
    )

    def __init__(
        self,
        cumulatives: List[List[float]],
        constraints: List[List[Tuple[int, int]]],
        leaf_alternatives: List[Any],
        leaf_keys: List[Hashable],
        leaf_scores: List[float],
        keys: List[Hashable],
        score_error: Optional[str],
    ) -> None:
        self.cumulatives = cumulatives
        self.constraints = constraints
        self.leaf_alternatives = leaf_alternatives
        self.leaf_keys = leaf_keys
        self.leaf_scores = leaf_scores
        self.keys = keys
        self.score_error = score_error
        self._key_columns: Dict[Hashable, List[int]] = {}
        for column, key in enumerate(leaf_keys):
            self._key_columns.setdefault(key, []).append(column)
        self.bernoulli = self._detect_bernoulli()

    @property
    def has_scores(self) -> bool:
        """True when the Top-k estimators are usable on this layout."""
        return self.score_error is None

    def require_topk_scores(self) -> None:
        """Raise unless the layout supports rank-based (Top-k) estimation."""
        if self.score_error is not None:
            raise ValueError(self.score_error)

    def _detect_bernoulli(self) -> Optional[List[float]]:
        """Per-leaf probabilities when all leaves are pairwise independent.

        That holds exactly when every leaf has a single xor constraint and
        no xor node governs two leaves: each leaf's presence is then an
        independent Bernoulli event with its edge probability.
        """
        used: set = set()
        probabilities: List[float] = []
        for constraint in self.constraints:
            if len(constraint) != 1:
                return None
            x, child = constraint[0]
            if x in used:
                return None
            used.add(x)
            cumulative = self.cumulatives[x]
            previous = cumulative[child - 1] if child > 0 else 0.0
            probabilities.append(cumulative[child] - previous)
        return probabilities

    @property
    def leaf_count(self) -> int:
        """Number of leaves (columns of a presence matrix)."""
        return len(self.leaf_keys)

    def key_columns(self, key: Hashable) -> List[int]:
        """The presence-matrix columns holding the leaves of one key."""
        return list(self._key_columns[key])

    def candidate_positions(self, answer: Sequence[Hashable], k: int) -> List[int]:
        """Per-leaf candidate positions (1-based; 0 = key not in answer).

        Validates that ``answer`` holds exactly ``k`` distinct known keys.
        """
        answer = tuple(answer)
        if len(answer) != k:
            raise ValueError(
                f"the candidate answer must have exactly k = {k} items"
            )
        if len(set(answer)) != k:
            raise ValueError("the candidate answer contains duplicates")
        positions = [0] * self.leaf_count
        for position, key in enumerate(answer, start=1):
            columns = self._key_columns.get(key)
            if columns is None:
                raise ValueError(f"unknown tuple key {key!r}")
            for column in columns:
                positions[column] = position
        return positions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlattenedTree({self.leaf_count} leaves, {len(self.keys)} keys, "
            f"{len(self.cumulatives)} xor nodes, "
            f"bernoulli={self.bernoulli is not None})"
        )


def flatten_tree(tree: Any, score_of: Optional[ScoreFunction] = None) -> FlattenedTree:
    """Compile an :class:`~repro.andxor.tree.AndXorTree` for batched sampling.

    ``score_of`` overrides
    :meth:`~repro.core.tuples.TupleAlternative.effective_score` (this is how
    a session's scoring function reaches the sampler).  Trees whose leaves
    carry no usable score still flatten -- set-level queries (marginals,
    world materialisation) work; the Top-k estimators require scores.
    """
    from repro.andxor.nodes import XorNode  # lazy: engine stays the bottom layer

    xor_index: Dict[int, int] = {}
    cumulatives: List[List[float]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, XorNode):
            xor_index[id(node)] = len(cumulatives)
            running = 0.0
            cumulative = []
            for probability in node.probabilities:
                running += probability
                cumulative.append(running)
            cumulatives.append(cumulative)
        stack.extend(node.children())

    leaves = list(tree.leaves)
    constraints: List[List[Tuple[int, int]]] = []
    scores: List[float] = []
    score_error: Optional[str] = None
    for leaf in leaves:
        constraints.append(
            [
                (xor_index[xor_id], child)
                for xor_id, (child, _) in tree.leaf_choices(leaf).items()
            ]
        )
        if score_of is not None:
            scores.append(float(score_of(leaf.alternative)))
        else:
            try:
                scores.append(float(leaf.alternative.effective_score()))
            except TypeError:
                score_error = (
                    "the flattened tree has no usable scores; Top-k "
                    "estimators require scored leaves"
                )
                scores.append(0.0)
    if score_error is not None:
        scores = [0.0] * len(leaves)
    else:
        # Mirror the exact path's no-ties assumption
        # (RankStatistics._validate_scores): cross-key score ties would make
        # the sampled rank order depend on tree construction order.
        key_by_score: Dict[float, Hashable] = {}
        for leaf, score in zip(leaves, scores):
            other = key_by_score.get(score)
            if other is not None and other != leaf.alternative.key:
                score_error = (
                    f"alternatives of different tuples share score {score}; "
                    "Top-k estimators assume pairwise-distinct scores (the "
                    "same no-ties assumption the exact consensus path "
                    "validates)"
                )
                break
            key_by_score[score] = leaf.alternative.key

    order = sorted(range(len(leaves)), key=lambda i: (-scores[i], i))
    return FlattenedTree(
        cumulatives=cumulatives,
        constraints=[constraints[i] for i in order],
        leaf_alternatives=[leaves[i].alternative for i in order],
        leaf_keys=[leaves[i].alternative.key for i in order],
        leaf_scores=[scores[i] for i in order],
        keys=list(tree.keys()),
        score_error=score_error,
    )


# ----------------------------------------------------------------------
# Streaming moments and estimates
# ----------------------------------------------------------------------
class Estimate:
    """A Monte-Carlo estimate with its sampling uncertainty.

    ``float(estimate)`` returns the mean; :meth:`confidence_interval` uses
    the normal approximation (valid for the large sample counts Monte-Carlo
    estimation runs at).
    """

    __slots__ = ("mean", "variance", "std_error", "samples")

    def __init__(self, mean: float, variance: float, samples: int) -> None:
        self.mean = mean
        self.variance = variance
        self.samples = samples
        # Below two samples the variance is unidentifiable: report infinite
        # uncertainty rather than a zero-width interval.
        self.std_error = (
            math.sqrt(variance / samples) if samples > 1 else float("inf")
        )

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval at the given level."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)

    def __float__(self) -> float:
        return self.mean

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Estimate(mean={self.mean:.6g}, std_error={self.std_error:.3g}, "
            f"samples={self.samples})"
        )


class StreamingMoments:
    """Welford's streaming mean / variance accumulator.

    Batches stream through :meth:`add_many`; the running statistics never
    require the per-sample values to be retained.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations into the running moments.

        Computes the batch's own mean and sum of squared deviations first
        and merges them with Chan's parallel update, so the per-observation
        Python work is two C-level sweeps instead of one Welford step each.
        """
        batch_count = len(values)
        if batch_count == 0:
            return
        if batch_count == 1:
            self.add(values[0])
            return
        batch_mean = sum(values) / batch_count
        batch_m2 = sum((value - batch_mean) ** 2 for value in values)
        total = self.count + batch_count
        delta = batch_mean - self.mean
        self.mean += delta * batch_count / total
        self._m2 += batch_m2 + delta * delta * self.count * batch_count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the observations so far."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def estimate(self) -> Estimate:
        """Snapshot the running moments as an :class:`Estimate`."""
        return Estimate(self.mean, self.variance, self.count)


# ----------------------------------------------------------------------
# World batches
# ----------------------------------------------------------------------
class WorldBatch:
    """``S × n_leaves`` possible-world draws in the backend-native layout.

    Rows are samples; columns are the layout's score-sorted leaves.  The
    key constraint guarantees at most one leaf per tuple key is present in
    a row, so the Top-k answer of a sample is simply its first ``k``
    present leaves and the rank of a present leaf is its running count
    along the row -- which is what makes the distance estimators one
    cumulative sum plus masked reductions on the NumPy backend.
    """

    __slots__ = ("_layout", "_presence", "_backend", "_samples", "_rows")

    def __init__(
        self,
        layout: FlattenedTree,
        presence: Any,
        backend: Backend,
        samples: int,
    ) -> None:
        self._layout = layout
        self._presence = presence
        self._backend = backend
        self._samples = samples
        self._rows: Optional[List[List[bool]]] = None

    @property
    def layout(self) -> FlattenedTree:
        """The flattened layout the batch was drawn from."""
        return self._layout

    @property
    def backend(self) -> Backend:
        """The backend holding the native presence matrix."""
        return self._backend

    @property
    def native(self) -> Any:
        """The native presence matrix (callers must not mutate it)."""
        return self._presence

    @property
    def sample_count(self) -> int:
        """Number of sampled worlds (rows)."""
        return self._samples

    def __len__(self) -> int:
        return self._samples

    def _presence_rows(self) -> List[List[bool]]:
        if self._rows is None:
            self._rows = self._backend.matrix_to_lists(self._presence)
        return self._rows

    # ------------------------------------------------------------------
    # Set-level views
    # ------------------------------------------------------------------
    def marginals(self) -> Dict[Hashable, float]:
        """Empirical presence frequency of every tuple key."""
        column_totals = self._backend.column_sums(self._presence)
        return {
            key: sum(
                column_totals[column]
                for column in self._layout.key_columns(key)
            )
            / self._samples
            for key in self._layout.keys
        }

    def topk_marginals(self, k: int) -> Dict[Hashable, float]:
        """Empirical frequency of each key appearing in the sample's Top-k."""
        self._layout.require_topk_scores()
        counts: Dict[Hashable, int] = {key: 0 for key in self._layout.keys}
        if _np is not None and isinstance(self._presence, _np.ndarray):
            ranks = _np.cumsum(self._presence, axis=1, dtype=_np.int32)
            in_topk = self._presence & (ranks <= k)
            totals = in_topk.sum(axis=0)
            keys = self._layout.leaf_keys
            for column, total in enumerate(totals.tolist()):
                counts[keys[column]] += total
        else:
            keys = self._layout.leaf_keys
            for row in self._presence_rows():
                rank = 0
                for column, present in enumerate(row):
                    if present:
                        rank += 1
                        if rank > k:
                            break
                        counts[keys[column]] += 1
        return {key: count / self._samples for key, count in counts.items()}

    def worlds(self) -> List[Any]:
        """Materialise every sample as a :class:`~repro.core.worlds.PossibleWorld`."""
        from repro.core.worlds import PossibleWorld  # lazy: engine stays low

        alternatives = self._layout.leaf_alternatives
        return [
            PossibleWorld(
                alternative
                for alternative, present in zip(alternatives, row)
                if present
            )
            for row in self._presence_rows()
        ]

    def topk_answers(self, k: int) -> List[Tuple[Hashable, ...]]:
        """The Top-k answer (keys by decreasing score) of every sample."""
        self._layout.require_topk_scores()
        keys = self._layout.leaf_keys
        answers = []
        for row in self._presence_rows():
            answer = []
            for column, present in enumerate(row):
                if present:
                    answer.append(keys[column])
                    if len(answer) == k:
                        break
            answers.append(tuple(answer))
        return answers

    # ------------------------------------------------------------------
    # Batched Top-k distance estimators
    # ------------------------------------------------------------------
    def topk_distances(
        self, answer: Sequence[Hashable], k: int, metric: str
    ) -> List[float]:
        """Per-sample Top-k distance of ``answer`` against each world.

        ``metric`` is one of :data:`TOPK_METRICS`.  The NumPy backend runs
        the metric's vectorised estimator; the pure backend evaluates its
        reference distance (:mod:`repro.core.topk_distances`) per sample,
        so the two paths are mutually parity-testable.
        """
        record = _topk_metric(metric)
        self._layout.require_topk_scores()
        positions = self._layout.candidate_positions(answer, k)
        if _np is not None and isinstance(self._presence, _np.ndarray):
            view = _sample_view(self._presence, positions, k)
            return record.estimator(view, k).astype(float).tolist()
        candidate = tuple(answer)
        return [
            record.reference(candidate, world, k=k)
            for world in self.topk_answers(k)
        ]


# ----------------------------------------------------------------------
# Vectorised Top-k estimators (NumPy presence matrices)
# ----------------------------------------------------------------------
class SampleView(NamedTuple):
    """The arrays of one batch that every vectorised estimator reads."""

    ranks: Any  # running count of present leaves along each row
    in_topk: Any
    candidate: Any  # per leaf: 1-based position in the answer, 0 = absent
    matched: Any  # in the sample's Top-k and in the candidate answer
    intersection: Any
    world_len: Any  # |τ_pw| per sample


def _sample_view(presence: Any, positions: List[int], k: int) -> SampleView:
    ranks = _np.cumsum(presence, axis=1, dtype=_np.int32)
    sizes = ranks[:, -1] if ranks.shape[1] else _np.zeros(
        presence.shape[0], dtype=_np.int32
    )
    in_topk = presence & (ranks <= k)
    world_len = _np.minimum(sizes, k)
    candidate = _np.asarray(positions, dtype=_np.int32)
    matched = in_topk & (candidate > 0)
    intersection = matched.sum(axis=1)
    return SampleView(
        ranks, in_topk, candidate, matched, intersection, world_len
    )


def symmetric_difference_kernel(view: SampleView, k: int) -> Any:
    _, _, _, _, intersection, world_len = view
    return ((k - intersection) + (world_len - intersection)) / (2.0 * k)


def footrule_kernel(view: SampleView, k: int) -> Any:
    ranks, in_topk, candidate, matched, _, _ = view
    # Matched items pay |i - j|; candidate items outside the world
    # Top-k pay (k+1) - i; world Top-k items outside the candidate
    # pay (k+1) - j (missing elements sit at location ℓ = k + 1).
    both = _np.where(matched, _np.abs(ranks - candidate), 0).sum(axis=1)
    matched_positions = _np.where(
        matched, (k + 1) - candidate, 0
    ).sum(axis=1)
    candidate_only = k * (k + 1) / 2.0 - matched_positions
    extra = in_topk & (candidate == 0)
    world_only = _np.where(extra, (k + 1) - ranks, 0).sum(axis=1)
    return both + candidate_only + world_only


def intersection_kernel(view: SampleView, k: int) -> Any:
    ranks, _, candidate, matched, _, world_len = view
    # d_I = (1/k) Σ_i |Δ_i| / (2i); a matched item with positions
    # (i1, i2) joins both prefixes from i = max(i1, i2) on, so its
    # harmonic contribution telescopes to H_k - H_{max-1}.
    harmonic = _np.concatenate(
        ([0.0], _np.cumsum(1.0 / _np.arange(1, k + 1)))
    )
    latest = _np.clip(_np.maximum(ranks, candidate), 1, k)
    common = _np.where(
        matched, harmonic[k] - harmonic[latest - 1], 0.0
    ).sum(axis=1)
    base = k / 2.0 + 0.5 * (
        world_len + world_len * (harmonic[k] - harmonic[world_len])
    )
    return (base - common) / k


def kendall_kernel(view: SampleView, k: int) -> Any:
    ranks, in_topk, candidate, matched, intersection, world_len = view
    samples = len(ranks)
    # Kendall K^(0): inversions among matched pairs, plus the forced
    # disagreements involving items present in only one of the lists.
    world_rank = _np.zeros((samples, k), dtype=_np.int32)
    rows, columns = _np.nonzero(matched)
    _np.add.at(
        world_rank,
        (rows, candidate[columns] - 1),
        ranks[rows, columns],
    )
    present = world_rank > 0
    upper = _np.triu(_np.ones((k, k), dtype=bool), 1)
    first = world_rank[:, :, None]
    second = world_rank[:, None, :]
    both_present = present[:, :, None] & present[:, None, :]
    # Case 1: both items in both lists, ordered oppositely.
    inversions = ((both_present & (first > second))[:, upper]).sum(axis=1)
    # Case 2a: both in the candidate, only the later one in the world's
    # Top-k (the world necessarily ranks its member above the missing one).
    half_candidate = (
        (~present[:, :, None] & present[:, None, :])[:, upper]
    ).sum(axis=1)
    # Case 2b: both in the world's Top-k, only one in the candidate.
    outside = _np.zeros((samples, k), dtype=_np.int32)
    extra = in_topk & (candidate == 0)
    rows, columns = _np.nonzero(extra)
    _np.add.at(outside, (rows, ranks[rows, columns] - 1), 1)
    outside_before = _np.cumsum(outside, axis=1)
    gathered = _np.take_along_axis(
        outside_before, _np.clip(world_rank, 1, k) - 1, axis=1
    )
    half_world = _np.where(present, gathered, 0).sum(axis=1)
    # Case 3: items appearing in exactly one list each.
    cross = (k - intersection) * (world_len - intersection)
    return inversions + half_candidate + half_world + cross


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
class MonteCarloSampler:
    """Batched Monte-Carlo world sampler bound to one flattened tree.

    Parameters
    ----------
    tree:
        The and/xor tree to sample from.
    score_of:
        Optional scoring override forwarded to :func:`flatten_tree` (a
        query session passes its active scoring here).
    rng:
        Default random source: a ``random.Random``, an integer seed, or
        None for the process-wide :func:`default_rng` (seedable via the
        ``REPRO_SEED`` environment variable).  Per-call ``rng=`` arguments
        override it.
    """

    def __init__(
        self,
        tree: Any,
        score_of: Optional[ScoreFunction] = None,
        rng: RandomSource = None,
    ) -> None:
        self._layout = flatten_tree(tree, score_of)
        self._rng = resolve_rng(rng)

    @property
    def layout(self) -> FlattenedTree:
        """The flattened layout (compiled once, shared by every batch)."""
        return self._layout

    def keys(self) -> List[Hashable]:
        """The tuple keys of the underlying tree."""
        return list(self._layout.keys)

    def _resolve(self, rng: RandomSource) -> random.Random:
        return self._rng if rng is None else resolve_rng(rng)

    def sample_batch(self, samples: int, rng: RandomSource = None) -> WorldBatch:
        """Draw ``samples`` independent worlds in one backend kernel call."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        from repro.engine import get_backend  # lazy: avoid import cycle

        seed = derive_seed(self._resolve(rng))
        backend = get_backend()
        layout = self._layout
        if layout.bernoulli is not None:
            native = backend.sample_bernoulli_presence(
                layout.bernoulli, samples, seed
            )
        else:
            native = backend.sample_xor_presence(
                layout.cumulatives,
                layout.constraints,
                layout.leaf_count,
                samples,
                seed,
            )
        return WorldBatch(layout, native, backend, samples)

    def estimate_expectation(
        self,
        function: Callable[[Any], float],
        samples: int,
        rng: RandomSource = None,
        batch_size: int = 4096,
    ) -> Estimate:
        """Monte-Carlo estimate of ``E[function(world)]``.

        Worlds are drawn in batches of ``batch_size`` through the flattened
        layout and materialised for the callback; the running moments
        stream, so memory stays bounded by one batch.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        generator = self._resolve(rng)
        moments = StreamingMoments()
        remaining = samples
        while remaining > 0:
            count = min(batch_size, remaining)
            batch = self.sample_batch(count, rng=generator)
            moments.add_many([function(world) for world in batch.worlds()])
            remaining -= count
        return moments.estimate()

    def estimate_topk_distance(
        self,
        answer: Sequence[Hashable],
        k: int,
        metric: str = "footrule",
        samples: int = 10_000,
        rng: RandomSource = None,
        batch_size: int = 4096,
    ) -> Estimate:
        """Monte-Carlo estimate of ``E[d(answer, τ_pw)]`` for one metric.

        ``metric`` is one of :data:`TOPK_METRICS`; distances stay inside
        the backend per batch (no world materialisation), so large sample
        counts remain one vectorized sweep per batch.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        _topk_metric(metric)  # validate eagerly
        answer = tuple(answer)
        self._layout.candidate_positions(answer, k)  # validate eagerly
        generator = self._resolve(rng)
        moments = StreamingMoments()
        remaining = samples
        while remaining > 0:
            count = min(batch_size, remaining)
            batch = self.sample_batch(count, rng=generator)
            moments.add_many(batch.topk_distances(answer, k, metric))
            remaining -= count
        return moments.estimate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MonteCarloSampler({self._layout!r})"
