"""Calibrated per-kernel cost models for the query planner.

The :class:`~repro.query.Planner` routes queries using the paper's
hardness taxonomy, but *within* a route family the interesting decisions
are quantitative: at what database size does exhaustive Kendall
enumeration stop beating Monte-Carlo estimation?  How many samples fit a
latency budget?  Those crossovers depend on the host and the active
backend, so instead of hard-coded constants the planner consults a
:class:`CalibrationTable`: per-kernel seconds-per-operation rates keyed by
``(backend, layout kind, kernel, n-bucket)``.

Tables come from two sources:

* **Measured benchmark timings** -- the benchmark harness persists JSON
  documents under ``benchmarks/results/`` stamped with the host they were
  measured on (``os.cpu_count()``, platform, python version).  Documents
  carrying a ``"calibration"`` probe list (the E14 calibration leg emits
  one) are fitted into a table by :func:`fit_from_results`; a table
  measured on a *different* host is rejected, falling back to heuristics.
* **Micro-calibration probes** -- :func:`micro_calibrate` times a handful
  of tiny kernel runs (a rank-matrix sweep, a sampler batch, a brute-force
  Kendall enumeration, ...) on the live backend at first use, a
  millisecond-scale fallback when no benchmark data exists for this host.

:func:`kendall_crossover` turns the rates into the planner's
exact-vs-sampling size threshold; :meth:`CalibrationTable.seconds_for`
turns a plan's operation-count estimate into wall-clock seconds that
``ExecutionPlan.explain()`` reports alongside the cost source.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Any, Dict, List, Optional, Tuple

#: Environment override: a calibration JSON path (or a results directory).
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Default on-disk location, relative to the working directory.
DEFAULT_CALIBRATION_PATH = os.path.join(
    "benchmarks", "results", "calibration.json"
)

#: Kernel identities the planner's cost formulas are expressed in.
KERNELS = (
    "rank_sweep",            # truncated rank-matrix sweep, ops = n * k
    "size_tables",           # Theorem 4 size-table merge, ops = n*k + n^2
    "footrule_assignment",   # Upsilon tables + assignment, n*k + k^3
    "prefix_scan",           # O(n^2) prefix sweeps (Jaccard, exp. ranks)
    "tree_pass",             # one bottom-up tree pass, ops = n
    "mc_sample",             # Monte-Carlo batches, ops = samples * n
    "kendall_enumeration",   # brute force, ops = P(n, k) * 2^n
    "pivot_grid",            # KwikSort pivoting, ops = n*k + pool^2
)


def host_fingerprint() -> Dict[str, Any]:
    """The identity calibration tables are keyed to.

    Rates measured on one machine are meaningless on another; a table
    whose fingerprint disagrees with the running host is discarded and
    the planner falls back to heuristic operation counts.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _bucket(n: int) -> int:
    """Power-of-two size bucket: rates vary with n (cache effects,
    vectorization ramp-up), so nearby sizes share a bucket."""
    return max(0, int(round(math.log2(max(1, n)))))


class CalibrationTable:
    """Measured seconds-per-operation rates, keyed by
    ``(backend, layout, kernel, n-bucket)``.

    ``source`` records provenance: ``"measured"`` for benchmark-fitted
    tables, ``"micro"`` for first-use probe tables -- ``explain()``
    surfaces the distinction.
    """

    def __init__(
        self,
        host: Optional[Dict[str, Any]] = None,
        source: str = "measured",
    ) -> None:
        self.host = dict(host) if host is not None else host_fingerprint()
        self.source = source
        self._rates: Dict[Tuple[str, str, str, int], List[float]] = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def record(
        self,
        backend: str,
        layout: str,
        kernel: str,
        n: int,
        ops: float,
        seconds: float,
    ) -> None:
        """Add one timing sample: ``ops`` abstract operations took
        ``seconds`` wall-clock on a size-``n`` database."""
        if ops <= 0 or seconds <= 0:
            return
        key = (backend, layout, kernel, _bucket(n))
        self._rates.setdefault(key, []).append(seconds / ops)

    def merge(self, other: "CalibrationTable") -> None:
        """Fold another table's samples into this one (same host)."""
        for key, samples in other._rates.items():
            self._rates.setdefault(key, []).extend(samples)

    def __len__(self) -> int:
        return len(self._rates)

    def has_backend(self, backend: str) -> bool:
        """Whether any rate entry was measured on ``backend``."""
        return any(key[0] == backend for key in self._rates)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def rate_for(
        self, backend: str, layout: str, kernel: str, n: int
    ) -> Optional[float]:
        """Median seconds-per-op for a kernel near size ``n``.

        Exact ``(backend, layout)`` entries win; a backend match with any
        layout is the fallback (kernel rates vary far more by backend than
        by layout).  Among matching entries the nearest size bucket is
        chosen.
        """
        target = _bucket(n)
        best: Optional[Tuple[int, int, List[float]]] = None
        for (entry_backend, entry_layout, entry_kernel, bucket), samples in (
            self._rates.items()
        ):
            if entry_backend != backend or entry_kernel != kernel:
                continue
            layout_penalty = 0 if entry_layout == layout else 1
            distance = abs(bucket - target)
            candidate = (layout_penalty, distance, samples)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            return None
        samples = sorted(best[2])
        return samples[len(samples) // 2]

    def seconds_for(
        self, backend: str, layout: str, kernel: str, n: int, ops: float
    ) -> Optional[float]:
        """Wall-clock estimate of ``ops`` operations of one kernel."""
        rate = self.rate_for(backend, layout, kernel, n)
        if rate is None:
            return None
        return ops * rate

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_document(self) -> Dict[str, Any]:
        """The JSON document shape the benchmark harness persists."""
        return {
            "experiment": "calibration",
            "host": dict(self.host),
            "source": self.source,
            "calibration": [
                {
                    "backend": backend,
                    "layout": layout,
                    "kernel": kernel,
                    "bucket": bucket,
                    "rates": samples,
                }
                for (backend, layout, kernel, bucket), samples in sorted(
                    self._rates.items()
                )
            ],
        }

    def save(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_document(
        cls, document: Dict[str, Any]
    ) -> Optional["CalibrationTable"]:
        """Rebuild a table from a results JSON; None when it was measured
        on a different host (stale-host tables fall back to heuristics)."""
        probes = document.get("calibration")
        host = document.get("host")
        if not isinstance(probes, list) or not isinstance(host, dict):
            return None
        if host != host_fingerprint():
            return None
        table = cls(host=host, source=document.get("source", "measured"))
        for probe in probes:
            try:
                key = (
                    str(probe["backend"]),
                    str(probe["layout"]),
                    str(probe["kernel"]),
                    int(probe["bucket"]),
                )
                samples = [float(rate) for rate in probe["rates"]]
            except (KeyError, TypeError, ValueError):
                continue
            if samples:
                table._rates.setdefault(key, []).extend(samples)
        return table if len(table) else None

    @classmethod
    def load(cls, path: str) -> Optional["CalibrationTable"]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        return cls.from_document(document)


def fit_from_results(directory: str) -> Optional[CalibrationTable]:
    """Fit one table from every calibration-bearing JSON in a results
    directory, skipping documents measured on other hosts."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return None
    merged: Optional[CalibrationTable] = None
    for name in names:
        if not name.endswith(".json"):
            continue
        table = CalibrationTable.load(os.path.join(directory, name))
        if table is None:
            continue
        if merged is None:
            merged = table
        else:
            merged.merge(table)
    return merged


def load_calibration(path: Optional[str] = None) -> Optional[CalibrationTable]:
    """The host's persisted calibration table, if any.

    Resolution order: an explicit ``path`` argument, the
    ``REPRO_CALIBRATION`` environment variable, then
    ``benchmarks/results/calibration.json`` under the working directory.
    A path naming a directory is scanned with :func:`fit_from_results`.
    Stale-host and malformed tables resolve to None.
    """
    if path is None:
        path = os.environ.get(CALIBRATION_ENV)
    if path is None:
        path = DEFAULT_CALIBRATION_PATH
    if os.path.isdir(path):
        return fit_from_results(path)
    return CalibrationTable.load(path)


# ----------------------------------------------------------------------
# Micro-calibration probes
# ----------------------------------------------------------------------
def _probe_database(count: int):
    """A tiny deterministic tuple-independent database for probing."""
    from repro.models import TupleIndependentDatabase

    rows = [
        (
            f"c{index}",
            float(10 * count - index),
            0.25 + 0.5 * ((index * 37) % 97) / 97.0,
        )
        for index in range(count)
    ]
    return TupleIndependentDatabase(rows)


def _timed(callee) -> float:
    """Best-of-two wall-clock of one probe call (damps scheduler noise)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        callee()
        best = min(best, time.perf_counter() - started)
    return best


def micro_calibrate(sizes: Tuple[int, ...] = (64, 256)) -> CalibrationTable:
    """Measure a handful of kernel probes on the active backend.

    The first-use fallback when no benchmark-measured table exists for
    this host: a few millisecond-scale runs over tiny deterministic
    databases, recorded under ``source="micro"``.  Probe operation counts
    use the same formulas as the planner's cost estimates, so
    ``seconds_for`` stays consistent between probe and plan.
    """
    from repro.engine import get_backend
    from repro.session import QuerySession

    backend_object = get_backend()
    backend = backend_object.name
    layout = "tuple-independent"
    table = CalibrationTable(source="micro")

    for n in sizes:
        session = QuerySession(_probe_database(n).tree)
        k = max(2, n // 16)
        # Build the statistics outside the timed region; probes measure
        # marginal kernel cost, not the one-time artifact build.
        statistics = session.statistics
        probabilities = [
            probability
            for _, probability, _ in statistics.independent_tuple_layout()
        ]
        # The rank-sweep kernel directly (RankStatistics caches matrices
        # per max_rank, which would turn a second timing into a hit).
        elapsed = _timed(
            lambda: backend_object.rank_probability_matrix(probabilities, k)
        )
        table.record(backend, layout, "rank_sweep", n, float(n) * k, elapsed)
        sampler = session.sampler()
        batch = 256
        elapsed = _timed(lambda: sampler.sample_batch(batch, rng=12345))
        table.record(
            backend, layout, "mc_sample", n, float(batch) * n, elapsed
        )

    n = sizes[0]
    statistics = QuerySession(_probe_database(n).tree).statistics
    k = max(2, n // 16)

    # Query probes run on a fresh session adopting the prebuilt statistics
    # each time: session-level memoization never absorbs the timed work,
    # while the one-time statistics build stays out of the measurement.
    def _fresh() -> QuerySession:
        return QuerySession(statistics)

    elapsed = _timed(lambda: _fresh().mean_world_jaccard())
    table.record(backend, layout, "prefix_scan", n, float(n) ** 2, elapsed)
    elapsed = _timed(lambda: _fresh().mean_topk_footrule(k))
    table.record(
        backend,
        layout,
        "footrule_assignment",
        n,
        float(n) * k + float(k) ** 3,
        elapsed,
    )
    elapsed = _timed(lambda: _fresh().median_topk_symmetric_difference(k))
    table.record(
        backend,
        layout,
        "size_tables",
        n,
        float(n) * k + float(n) ** 2,
        elapsed,
    )
    elapsed = _timed(lambda: _fresh().median_world_symmetric_difference())
    table.record(backend, layout, "tree_pass", n, float(n), elapsed)
    elapsed = _timed(lambda: _fresh().approximate_topk_kendall(k))
    pool = min(2 * k, n)
    table.record(
        backend,
        layout,
        "pivot_grid",
        n,
        float(n) * k + float(pool) ** 2,
        elapsed,
    )

    from repro.consensus.topk.kendall import brute_force_mean_topk_kendall

    enum_n, enum_k = 6, 2
    enum_statistics = QuerySession(_probe_database(enum_n).tree).statistics
    elapsed = _timed(
        lambda: brute_force_mean_topk_kendall(
            QuerySession(enum_statistics), enum_k
        )
    )
    ops = float(math.perm(enum_n, enum_k)) * 2.0 ** enum_n
    table.record(
        backend, layout, "kendall_enumeration", enum_n, ops, elapsed
    )
    return table


# ----------------------------------------------------------------------
# Crossover decisions
# ----------------------------------------------------------------------
def kendall_crossover(
    table: CalibrationTable,
    backend: str,
    layout: str,
    k: int = 3,
    samples: int = 4000,
    budget_s: float = 0.05,
    fallback: int = 6,
    floor: int = 5,
    ceiling: int = 16,
) -> Tuple[int, Optional[str]]:
    """The measured exact-vs-sampling size threshold for Kendall queries.

    Exhaustive enumeration costs ``P(n, k) * 2^n`` operations; it stays
    the right route while its measured wall-clock remains under
    ``budget_s`` (or under the measured cost of the Monte-Carlo
    alternative, whichever is larger).  Returns ``(limit, note)`` where
    ``note`` cites the measured rates, or ``(fallback, None)`` when the
    table has no enumeration rate for this backend.  The result is
    clamped to ``[floor, ceiling]``: enumeration is always sane on
    single-digit databases and never past the exponential wall.
    """
    enum_rate = table.rate_for(backend, layout, "kendall_enumeration", 6)
    if enum_rate is None:
        return fallback, None
    mc_rate = table.rate_for(backend, layout, "mc_sample", 64)
    limit = floor
    for n in range(floor, ceiling + 1):
        ops = float(math.perm(n, min(k, n))) * 2.0 ** n
        exact_seconds = ops * enum_rate
        sampling_seconds = (
            float(samples) * n * mc_rate if mc_rate is not None else 0.0
        )
        if exact_seconds <= max(budget_s, sampling_seconds):
            limit = n
        else:
            break
    note = (
        f"calibrated crossover: enumeration measured at "
        f"{enum_rate:.3g} s/op ({table.source}) stays within the "
        f"{budget_s * 1e3:.0f} ms exact budget up to n={limit}"
    )
    if mc_rate is not None:
        note += (
            f"; sampling measured at {mc_rate:.3g} s/op per world-tuple"
        )
    return limit, note


def derive_batch_size(
    table: CalibrationTable,
    backend: str,
    layout: str,
    n: int,
    target_seconds: float = 0.01,
    floor: int = 256,
    ceiling: int = 16384,
    fallback: int = 2048,
) -> int:
    """Monte-Carlo batch sizing from the measured per-sample cost.

    Picks the batch whose measured wall-clock lands near
    ``target_seconds`` -- large enough to amortize kernel dispatch, small
    enough that CI-driven early stopping still reacts -- clamped to
    ``[floor, ceiling]``.  Falls back to the heuristic default when the
    table has no sampling rate.
    """
    rate = table.rate_for(backend, layout, "mc_sample", n)
    if rate is None or rate <= 0 or n <= 0:
        return fallback
    per_sample = rate * n
    if per_sample <= 0:
        return fallback
    batch = int(target_seconds / per_sample)
    return max(floor, min(ceiling, batch))
