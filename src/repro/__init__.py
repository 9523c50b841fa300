"""repro: consensus answers for queries over probabilistic databases.

A from-scratch reproduction of Li & Deshpande, "Consensus Answers for Queries
over Probabilistic Databases" (PODS 2009, arXiv:0812.2049).

Quickstart
----------
Connect to a database -- local, sharded, or served; the facade is the same
-- and execute declarative :class:`~repro.query.ConsensusQuery` objects.
The hardness-aware planner picks the execution path: exact PTIME kernels
where the paper gives one, the paper's approximation algorithms, or the
batched Monte-Carlo engine (with confidence-interval-driven sample sizing)
where the paper proves NP-hardness.

>>> import repro
>>> from repro import Query
>>> database = repro.BlockIndependentDatabase({
...     "t1": [(90, 0.6), (40, 0.4)],
...     "t2": [(80, 1.0)],
...     "t3": [(70, 0.5)],
... })
>>> connection = repro.connect(database)
>>> answer = connection.execute(Query.topk(k=2))
>>> answer.answer
('t1', 't2')
>>> round(answer.expected_distance, 3)
0.1
>>> answer.provenance()["paper"]
'Theorem 3'

Queries are immutable builders -- every refinement returns a new hashable
object (the serving layer coalesces identical in-flight queries by this
hash):

>>> query = Query.topk(k=2).distance("kendall").epsilon(0.05)
>>> query.metric
'kendall'

``explain()`` renders the planner's choice without running the query --
the route, the paper result behind it, a cost estimate, and which memoized
session statistics it reads:

>>> print(connection.explain(          # doctest: +SKIP
...     Query.topk(k=2).distance("footrule")))
ConsensusQuery(kind='mean_topk_footrule', ...)
  target:    local, n=3 tuples, layout=bid, backend=numpy
  hardness:  PTIME -- Section 5.4: ... one min-cost assignment ...
  route:     exact
  ...

Besides Top-k answers under the symmetric-difference / footrule /
intersection / Kendall distances, the same facade covers consensus worlds
(``Query.set_consensus()``, ``Query.jaccard()``), membership tables
(``Query.membership(k)``), expected ranks (``Query.expected_ranks()``),
baseline ranking semantics (``Query.ranking("global", k)``) and group-by
count aggregates (``Query.aggregate()``).

Scaling out is a parameter, not an API change: ``repro.connect(db,
shards=4)`` partitions the database and answers every query from exact
cross-shard statistics, and ``repro.connect(executor)`` wraps the
asyncio serving front-end (use ``await connection.execute_async(query)``
inside its event loop to get coalescing and micro-batching):

>>> sharded = repro.connect(database, shards=2)
>>> sharded.execute(Query.topk(k=2)).answer
('t1', 't2')

Updates re-merge incrementally through cached prefix/suffix partial
products (O(shards) convolutions per single-shard change), and
``coordinator.at(versions)`` pins an MVCC snapshot reader whose answers
stay bit-identical while writers publish new shard versions.

The planner self-tunes.  Completed answers land in one place, a bounded
cross-session :class:`~repro.query.ResultCache` keyed by query
fingerprint, version token and backend, shared by connections and the
serving executor -- a repeated query at unchanged state replays
instantly (``answer.cached``), and any update, invalidation, re-scoring
or backend switch structurally misses.
``connection.execute_many(queries)`` fuses a batch wanting the
rank-matrix artifact at several depths into one ``k_max`` sweep answered
by exact column-prefix slices (the serving executor fuses its
micro-batches the same way).  Routing is deterministic: a plan depends
only on the query, the target and explicit planner options, and the
exact-vs-sampling threshold for NP-hard Kendall queries is the
documented constant ``Planner.KENDALL_LIMIT_DEFAULT`` (6 tuples).
``explain()`` reports operation-count estimates, never wall-clock ones.

Ten common query shapes have names, the kind strings the serving
layer's metrics are labelled with: ``Query.named("mean_topk_footrule",
k=2)`` equals ``Query.topk(k=2).distance("footrule")``, and
``query.kind`` reads the name back.

Architecture
------------
The package is organised bottom-up:

* :mod:`repro.core` -- tuples, possible worlds, answer distances.
* :mod:`repro.polynomials` -- generating-function arithmetic.
* :mod:`repro.andxor` -- the probabilistic and/xor tree model (Section 3).
* :mod:`repro.models` -- tuple-independent / BID / x-tuple convenience
  models, plus the partitioned :class:`~repro.models.sharded.ShardedDatabase`.
* :mod:`repro.matching`, :mod:`repro.flows` -- assignment and min-cost-flow
  substrates.
* :mod:`repro.rankagg` -- classical rank aggregation (Kemeny, footrule,
  pivot, Borda).
* :mod:`repro.consensus` -- the paper's consensus-answer algorithms
  (Sections 4-6).
* :mod:`repro.baselines` -- prior Top-k ranking semantics.
* :mod:`repro.algebra` -- a lineage-based probabilistic SPJ algebra.
* :mod:`repro.workloads` -- synthetic workload generators, scenarios and
  serving traffic streams (now emitting declarative query objects).
* :mod:`repro.engine` -- the vectorized compute engine every layer above
  runs on: pluggable array backends, batched rank / pairwise matrices and
  the Monte-Carlo sampling subsystem.
* :mod:`repro.session` -- the query-session layer sharing memoized
  statistics artifacts across consensus queries on one database (the
  answers are computed by :mod:`repro.consensus` and
  :mod:`repro.baselines`, and cached only by the result cache).
* :mod:`repro.sharding` -- cross-shard statistics merging: per-shard
  partial generating functions convolved into exact global answers.
* :mod:`repro.serving` -- the asyncio serving front-end (request
  coalescing keyed by query hashes, micro-batching, one update thread,
  invalidation fan-out).
* :mod:`repro.query` -- the unified declarative layer on top: query
  builders, the hardness-aware planner, execution plans with
  ``explain()``, and the :func:`repro.connect` facade.

Compute backends
----------------
All polynomial convolutions, rank-probability sweeps and sampling kernels
run through :func:`repro.engine.get_backend`.  Two backends ship:
``numpy`` (vectorized; requires the optional ``numpy`` dependency, e.g.
``pip install repro[fast]``) and ``python`` (dependency-free reference).
By default the NumPy backend is picked when importable; override with the
``REPRO_BACKEND`` environment variable (``numpy`` | ``python`` | ``auto``)
or programmatically:

>>> from repro.engine import set_backend, use_backend
>>> set_backend("python")           # doctest: +SKIP
>>> with use_backend("numpy"):      # doctest: +SKIP
...     ...

Sessions, sampling, sharding
----------------------------
A :class:`~repro.session.QuerySession` memoizes the expensive shared
statistics (rank matrix, cumulative view, Top-k membership, footrule
tables, pairwise preference grid, expected-rank table, the compiled
Monte-Carlo sampler) -- never answers -- with observable hit/miss
counters (:meth:`~repro.session.QuerySession.cache_info`) and explicit
invalidation; :func:`repro.connect` holds one warm session per
connection, and
``QueryAnswer.cache_hits`` reports the reuse each query achieved.

When a query is hard exactly, the planner falls back to
:meth:`~repro.session.QuerySession.sampler` -- a memoized
:class:`~repro.engine.MonteCarloSampler` whose flattened tree layout is
compiled once; every batch is one vectorized kernel call and the Top-k
distance estimators stream through Welford moments with
normal-approximation confidence intervals.  Reproducibility: every
sampling entry point accepts ``rng=`` (generator or integer seed); with
``rng=None`` all draws flow through one process-wide generator seeded by
the ``REPRO_SEED`` environment variable.

To serve heavy concurrent traffic, partition a database into shards
(:class:`~repro.models.sharded.ShardedDatabase`; hash or score-range
partitioning, BID blocks kept intact).  The database holds its rows once,
in one score-ordered store, and a shard is a row view of it; the
coordinator (:class:`~repro.sharding.ShardedQuerySession`) is a session
over that store.  It recovers the *exact* global rank matrix of a
tuple-independent database by convolving the shards' truncated partial
rank generating functions, and reads a block-independent database's off
the store, so every consensus query runs unchanged (1e-9 parity with an
unsharded session).  An update (``update_tuple`` or ``update_block``) is
one critical section under the database's lock: it patches the live
store, bumps the owning shard's version and publishes, so concurrent
writers serialise and none is rejected.  The asyncio front-end
(:class:`~repro.serving.ServingExecutor`) adds request coalescing,
micro-batching, one update thread and graceful cache invalidation
fan-out on updates; traffic mixes come from
:func:`repro.workloads.generate_traffic`, which emits the same
declarative query objects the executor consumes:

>>> import asyncio
>>> from repro.serving import ServingExecutor
>>> async def serve(sharded_db):
...     async with ServingExecutor(sharded_db) as executor:
...         connection = repro.connect(executor)
...         answer = await connection.execute_async(Query.topk(k=2))
...         await executor.update("t3", probability=0.2)
...         return answer.value
>>> asyncio.run(serve(ShardedDatabase(database, 4)))  # doctest: +SKIP
('t1', 't2')

Shards default to thread-backed execution.  Passing
``ShardedDatabase(database, 4, executor="processes")`` gives every shard
of a tuple-independent database a worker process holding a copy of its
rows and a warm session (:class:`~repro.sharding.ShardProcessPool`; a
block-independent database reads its rank matrix off the parent's store,
so it spawns none): per-shard kernels run outside the GIL and only the
shards' prefix tables cross the process boundary, pickled over each
worker's pipe (a row-suffix delta after an update).  Coordinator,
serving executor and updates work unchanged (same 1e-9 parity; an update
commits to the shard's worker inside its critical section).  Prefer
process execution for large shards (n >= 10^4) on the numpy backend, where
shard-local compute dominates the summary-exchange cost; use the
database as a context manager (or call ``close()``) to release workers.

Serving is self-healing, and a failure never changes an answer.  The
parent's store holds every shard's committed rows, so a worker is never
the only copy of its shard.  Process pools are supervised by default: a
crashed or wedged worker is restarted from the parent's store with
exponential backoff and seeded jitter
(:class:`~repro.sharding.SupervisorPolicy`), and ``close()`` escalates
join -> terminate -> kill so shutdown never hangs.  When a worker cannot
answer -- it failed the request, its restart budget is spent, or the
pool's per-shard circuit breaker is open -- that shard's reads fail
over to the parent's store through the same coordinator and merge, so
the answer is the exact, current consensus answer of the whole database.
Updates always commit parent-side; a worker that misses a commit is
respawned from the new store.  The executor adds per-query deadlines
(``execute(query, deadline_ms=...)`` raising
:class:`~repro.exceptions.DeadlineExceededError`).  Failure scenarios
are replayable: a seeded :class:`~repro.sharding.FaultSchedule` of
worker kills / stalls / message drops drives
:class:`~repro.sharding.FaultInjector`, and
:func:`repro.workloads.chaos_replay` accounts for every request under
faults (see ``benchmarks/bench_e16_faults.py``).

The HTTP front door and the ``repro`` CLI
-----------------------------------------
The serving layer speaks HTTP: :class:`repro.server.ReproServer` binds an
``asyncio`` listener (standard library only -- no web framework) mapping
``POST /query`` (single or micro-batch), ``POST /update``,
``GET /health`` / ``/metrics`` / ``/shards`` / ``/plans/<fingerprint>``
and ``POST /admin/drain`` onto a :class:`~repro.serving.ServingExecutor`.
The JSON wire format (:mod:`repro.query.wire`) is loss-free -- tuples,
sets, non-string keys and non-finite floats round-trip exactly, so a
:class:`~repro.query.QueryAnswer` decoded from the wire equals the
in-process one, provenance flags and confidence intervals included.
Robustness is in-protocol: bounded admission sheds load with 429 +
``Retry-After``, per-request deadlines surface as 504, a shard worker
outage still answers an exact 200, and draining finishes in-flight work
before 503-ing new queries.

>>> from repro.server import ReproClient, ServerThread   # doctest: +SKIP
>>> with ServerThread(ShardedDatabase(database, 4)) as thread:
...     client = thread.client()
...     answer = client.query(Query.topk(k=2).distance("footrule"))
...     client.metrics()["admissions"]

The ``repro`` console script (``[project.scripts]``; also
``python -m``-style via :func:`repro.cli.main`) drives the same wire
protocol from a terminal -- ``repro serve --scenario movie_ratings
--shards 4``, then ``repro query mean_topk_footrule -k 5``,
``repro explain``, ``repro top`` (live qps/latency/admissions deltas) and
``repro health``.  It needs only the standard library: ``argparse``
commands and plain-text tables.
"""

from repro.core.tuples import TupleAlternative
from repro.core.worlds import PossibleWorld, WorldDistribution
from repro.andxor.tree import AndXorTree
from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.builders import (
    bid_tree,
    coexistence_group_tree,
    from_explicit_worlds,
    tuple_independent_tree,
    x_tuple_tree,
)
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import RankStatistics
from repro.engine import (
    Estimate,
    MonteCarloSampler,
    PairwisePreferenceMatrix,
    RankMatrix,
    WorldBatch,
    get_backend,
    set_backend,
    use_backend,
)
from repro.session import CacheInfo, QuerySession, as_session
from repro.query import (
    Connection,
    ConsensusQuery,
    ExecutionPlan,
    Planner,
    Query,
    QueryAnswer,
    connect,
)
from repro.models import (
    BlockIndependentDatabase,
    ProbabilisticRelation,
    ShardedDatabase,
    TupleIndependentDatabase,
    XTupleDatabase,
)
from repro.sharding import ShardedQuerySession
from repro.serving import ServingExecutor
from repro.consensus import (
    GroupByCountConsensus,
    consensus_clustering,
    expected_jaccard_distance_to_world,
    expected_symmetric_difference_to_world,
)

__version__ = "4.0.0"

__all__ = [
    "__version__",
    "TupleAlternative",
    "PossibleWorld",
    "WorldDistribution",
    "AndXorTree",
    "Leaf",
    "XorNode",
    "AndNode",
    "tuple_independent_tree",
    "bid_tree",
    "x_tuple_tree",
    "from_explicit_worlds",
    "coexistence_group_tree",
    "enumerate_worlds",
    "RankStatistics",
    "RankMatrix",
    "PairwisePreferenceMatrix",
    "MonteCarloSampler",
    "WorldBatch",
    "Estimate",
    "QuerySession",
    "CacheInfo",
    "as_session",
    "get_backend",
    "set_backend",
    "use_backend",
    "Query",
    "ConsensusQuery",
    "QueryAnswer",
    "Connection",
    "connect",
    "Planner",
    "ExecutionPlan",
    "ProbabilisticRelation",
    "TupleIndependentDatabase",
    "BlockIndependentDatabase",
    "XTupleDatabase",
    "ShardedDatabase",
    "ShardedQuerySession",
    "ServingExecutor",
    "expected_symmetric_difference_to_world",
    "expected_jaccard_distance_to_world",
    "GroupByCountConsensus",
    "consensus_clustering",
]
