"""Convenience wrappers for the classic probabilistic database models.

Every model is an and/xor tree (:mod:`repro.andxor`).  Tuple-independent
and BID relations -- the tree's flat special case -- are stored as columns
(:class:`~repro.andxor.columns.FlatColumns`) and build their tree only on
demand.  This package provides user-facing constructors for

* tuple-independent databases,
* block-independent disjoint (BID) relations,
* x-tuple relations,

and the :class:`~repro.models.relation.ProbabilisticRelation` facade that
bundles the storage with the query helpers used by the examples.
"""

from repro.models.relation import ProbabilisticRelation
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.models.bid import BlockIndependentDatabase
from repro.models.xtuples import XTupleDatabase
from repro.models.sharded import (
    DatabaseShard,
    DatabaseSnapshot,
    ShardedDatabase,
)

__all__ = [
    "ProbabilisticRelation",
    "TupleIndependentDatabase",
    "BlockIndependentDatabase",
    "XTupleDatabase",
    "DatabaseShard",
    "DatabaseSnapshot",
    "ShardedDatabase",
]
