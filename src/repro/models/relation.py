"""The :class:`ProbabilisticRelation` facade.

Consensus algorithms in :mod:`repro.consensus` operate on
:class:`~repro.andxor.tree.AndXorTree` objects or, for the flat models, on
their columns.  This facade bundles a relation's storage with the handful
of operations applications typically need (presence probabilities, world
enumeration and sampling, rank statistics) so that the examples and
benchmarks read naturally.

Tuple-independent and BID relations store one
:class:`~repro.andxor.columns.FlatColumns` block; their :attr:`tree` is
built on first use, by the world-level, sampling and general paths only.
Other models (x-tuples, explicit trees) store the tree itself.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Hashable, List, Optional, Union

from repro.andxor.columns import FlatColumns
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.sampling import sample_world, sample_worlds
from repro.andxor.statistics import size_distribution
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.core.worlds import PossibleWorld, WorldDistribution
from repro.session import QuerySession


class ProbabilisticRelation:
    """A probabilistic relation ``R^P(K; A)``.

    Parameters
    ----------
    source:
        The and/xor tree describing the correlations of the relation, or
        the columns of a flat (tuple-independent / BID) relation.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(
        self, source: Union[AndXorTree, FlatColumns], name: str = "relation"
    ) -> None:
        self._columns: Optional[FlatColumns] = (
            source if isinstance(source, FlatColumns) else None
        )
        self._tree: Optional[AndXorTree] = (
            None if isinstance(source, FlatColumns) else source
        )
        self._name = name
        self._session: Optional[QuerySession] = None

    @classmethod
    def from_columns(
        cls, columns: FlatColumns, name: str
    ) -> "ProbabilisticRelation":
        """Wrap already-validated columns (no copy, no re-validation)."""
        relation = cls.__new__(cls)
        ProbabilisticRelation.__init__(relation, columns, name=name)
        return relation

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def tree(self) -> AndXorTree:
        """The underlying and/xor tree (built on first use for flat models)."""
        if self._tree is None:
            return self._columns.tree
        return self._tree

    @property
    def columns(self) -> Optional[FlatColumns]:
        """The columnar storage of a flat relation, else None."""
        return self._columns

    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    def keys(self) -> List[Hashable]:
        """The distinct possible-worlds keys of the relation."""
        if self._columns is not None:
            return list(self._columns.keys)
        return self._tree.keys()

    def alternatives(self) -> List[TupleAlternative]:
        """The distinct tuple alternatives of the relation."""
        return self.tree.alternatives()

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProbabilisticRelation({self._name!r}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def presence_probability(self, key: Hashable) -> float:
        """Probability that the tuple with the given key is present."""
        if self._columns is not None:
            return self._columns.presence(key)
        return self._tree.key_probability(key)

    def presence_probabilities(self) -> Dict[Hashable, float]:
        """Presence probability of every tuple key."""
        return {key: self.presence_probability(key) for key in self.keys()}

    def size_distribution(self) -> List[float]:
        """Distribution of the number of tuples in the random world."""
        return size_distribution(self.tree)

    def expected_size(self) -> float:
        """Expected number of tuples in the random world."""
        if self._columns is not None:
            columns = self._columns
            return sum(columns.backend.vector_values(columns.probabilities))
        return self._tree.expected_world_size()

    def query_session(self) -> QuerySession:
        """The relation's cached :class:`~repro.session.QuerySession`.

        Repeated connects against the same relation share this one warm
        session.  Its cached plans are released with the relation, so a
        dropped relation's session is freed at once rather than at the
        next full garbage collection.
        """
        if self._session is None:
            from repro.query.planner import release_plans

            self._session = QuerySession(
                self._columns if self._columns is not None else self._tree
            )
            weakref.finalize(self, release_plans, self._session)
        return self._session

    def rank_statistics(self) -> RankStatistics:
        """The :class:`~repro.andxor.rank_probabilities.RankStatistics` of
        :meth:`query_session`."""
        return self.query_session().statistics

    # ------------------------------------------------------------------
    # Worlds
    # ------------------------------------------------------------------
    def possible_worlds(self, limit: int = 1 << 18) -> WorldDistribution:
        """Enumerate the full possible-world distribution (small relations)."""
        return enumerate_worlds(self.tree, limit=limit)

    def sample_world(self, rng: random.Random | None = None) -> PossibleWorld:
        """Draw one possible world."""
        return sample_world(self.tree, rng)

    def sample_worlds(
        self, count: int, rng: random.Random | None = None
    ) -> List[PossibleWorld]:
        """Draw ``count`` independent possible worlds."""
        return sample_worlds(self.tree, count, rng)
