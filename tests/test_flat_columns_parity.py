"""Backend parity of the flat TI / BID columns.

On numpy the numeric columns of :class:`~repro.andxor.columns.FlatColumns`
(probabilities, scores, block ids, the score order) are ndarrays; on the
pure backend they are lists.  The same rows must give, on both backends,
the same keys, score order and rank matrix, the same exception for every
invalid input, and equal columns after a pickle round trip (the process
pool ships columns to its workers).  The build's exception must also be
the one the row-by-row rule raises: the first bad row (TI) or block (BID)
in row order, however many rows are bad.
"""

from __future__ import annotations

import math
import pickle
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.andxor.columns import (
    FlatColumns,
    check_block,
    check_tuple_probability,
)
from repro.andxor.rank_probabilities import RankStatistics
from repro.engine import numpy_available, use_backend
from repro.exceptions import ProbabilityError
from repro.models import BlockIndependentDatabase, TupleIndependentDatabase

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed"
)

BACKENDS = ("python", "numpy")
TOLERANCE = 1e-12

#: Faults injected (up to two per case) into otherwise valid rows.
TI_FAULTS = (
    "probability_high",
    "probability_low",
    "probability_none",
    "probability_text",
    "duplicate_key",
    "arity",
    "tie",
    "unscored",
)
BID_FAULTS = ("mass", "negative", "tie", "unscored")
#: Faults of the raw ``(value, score, probability)`` rows of
#: :meth:`FlatColumns.from_blocks`, which takes probabilities unconverted.
RAW_BID_FAULTS = ("mass", "negative", "none", "text", "decimal")


def _faults(draw, kinds):
    return draw(st.lists(st.sampled_from(kinds), max_size=2))


def _score_pool(draw, count):
    return draw(
        st.lists(
            st.integers(1, 10 * count + 10),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )


@st.composite
def ti_rows(draw):
    """3- and 4-tuples (value or explicit scores) plus one fault."""
    count = draw(st.integers(1, 12))
    scores = _score_pool(draw, count)
    rows = []
    for index, score in enumerate(scores):
        probability = draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):
            rows.append((f"k{index}", float(score), probability))
        else:
            rows.append((f"k{index}", f"v{index}", float(score), probability))
    for fault in _faults(draw, TI_FAULTS):
        row = draw(st.integers(0, count - 1))
        key, *rest = rows[row]
        if len(rest) < 2:  # already cut down to (key, probability)
            continue
        if fault == "probability_high":
            rows[row] = (key, *rest[:-1], 1.5)
        elif fault == "probability_low":
            rows[row] = (key, *rest[:-1], -0.25)
        elif fault == "probability_none":
            rows[row] = (key, *rest[:-1], None)
        elif fault == "probability_text":
            rows[row] = (key, *rest[:-1], "abc")
        elif fault == "duplicate_key":
            rows.append(rows[row])
        elif fault == "arity":
            rows[row] = (key, rest[-1])
        elif fault == "tie" and count > 1:
            other = rows[(row + 1) % count]
            if len(other) > 2:
                rows[row] = (key, "tied", other[-2], rest[-1])
        elif fault == "unscored":
            rows[row] = (key, "no score", rest[-1])
    return rows


@st.composite
def bid_blocks(draw):
    """Blocks of 2- and 3-tuple alternatives plus one fault."""
    count = draw(st.integers(1, 6))
    sizes = [draw(st.integers(1, 3)) for _ in range(count)]
    scores = iter(_score_pool(draw, sum(sizes)))
    blocks = []
    for index, size in enumerate(sizes):
        weights = [draw(st.floats(0.05, 1.0)) for _ in range(size)]
        mass = draw(st.floats(0.1, 1.0)) / sum(weights)
        alternatives = []
        for weight in weights:
            score = float(next(scores))
            if draw(st.booleans()):
                alternatives.append((score, weight * mass))
            else:
                alternatives.append((f"a{score:g}", score, weight * mass))
        blocks.append((f"b{index}", alternatives))
    for fault in _faults(draw, BID_FAULTS):
        block = draw(st.integers(0, count - 1))
        key, alternatives = blocks[block]
        if fault == "mass":
            extra = (f"extra{block}", 1e6 + block + len(alternatives), 1.0)
            alternatives = alternatives + [extra]
        elif fault == "negative":
            value, *rest = alternatives[0]
            alternatives = [(value, *rest[:-1], -0.5)] + alternatives[1:]
        elif fault == "tie" and count > 1:
            other = blocks[(block + 1) % count][1][-1]
            tied = other[0] if len(other) == 2 else other[1]
            if isinstance(tied, float):
                alternatives = alternatives + [(f"tied{block}", tied, 0.0)]
        elif fault == "unscored":
            alternatives = [(f"no score {block}", 0.0)] + alternatives
        blocks[block] = (key, alternatives)
    return blocks


@st.composite
def raw_bid_blocks(draw):
    """``(key, [(value, score, probability), ...])`` blocks, as
    :meth:`FlatColumns.from_blocks` takes them, plus up to two faults."""
    count = draw(st.integers(1, 6))
    blocks = []
    for index in range(count):
        size = draw(st.integers(0, 3))
        rows = [
            (f"v{index}.{row}", float(10 * index + row), 0.9 / max(size, 1))
            for row in range(size)
        ]
        blocks.append((f"b{index}", rows))
    for fault in _faults(draw, RAW_BID_FAULTS):
        key, rows = blocks[draw(st.integers(0, count - 1))]
        if fault == "mass":
            rows.append(("extra", None, 0.5))
            continue
        if not rows:
            continue
        row = draw(st.integers(0, len(rows) - 1))
        value, score, _ = rows[row]
        rows[row] = (
            value,
            score,
            {
                "negative": -0.5,
                "none": None,
                "text": "0.25",
                "decimal": Decimal("0.25"),
            }[fault],
        )
    return blocks


def _reference_ti(rows):
    """The row-by-row tuple-independent build rule."""
    seen = set()
    for item in rows:
        if len(item) not in (3, 4):
            raise ProbabilityError(
                "expected (key, value, probability) or "
                f"(key, value, score, probability), got {item!r}"
            )
        if item[0] in seen:
            raise ProbabilityError(
                f"duplicate key {item[0]!r} in a tuple-independent database"
            )
        seen.add(item[0])
        check_tuple_probability(float(item[-1]))
    for item in rows:  # the build converts the score column last
        if len(item) == 4 and item[2] is not None:
            float(item[2])  # an explicit score must be numeric


def _reference_blocks(blocks):
    """The block-by-block BID build rule."""
    for key, rows in blocks:
        check_block(key, rows)


def _error(call):
    """``(type, message)`` of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as error:  # compared with the scalar reference
        return type(error), str(error)
    return None


def _assert_build_matches_reference(build, reference):
    want = _error(reference)
    for backend in BACKENDS:
        with use_backend(backend):
            assert _error(build) == want, backend


def _outcome(build, backend, k=4):
    """What one backend makes of the rows: the columns, the keys, the
    order, the rank matrix rows -- or the exception raised on the way."""
    with use_backend(backend):
        try:
            columns = build().columns
            statistics = RankStatistics(columns)
            matrix = statistics.rank_matrix(k)
        except Exception as error:  # compared across backends below
            return None, (type(error), str(error))
        return columns, (
            list(columns.keys),
            [int(row) for row in columns.order],
            {key: matrix.row(key) for key in matrix.keys()},
        )


def _assert_same_outcome(build):
    (_, pure), (columns, fast) = (
        _outcome(build, backend) for backend in BACKENDS
    )
    if columns is None or isinstance(pure[0], type):
        assert fast == pure
        return
    assert fast[:2] == pure[:2]
    assert fast[2].keys() == pure[2].keys()
    for key, row in pure[2].items():
        for want, have in zip(row, fast[2][key]):
            assert math.isclose(want, have, rel_tol=0.0, abs_tol=TOLERANCE)
            assert type(have) is float
    _assert_pickle_round_trip(columns)


def _assert_pickle_round_trip(columns):
    copy = pickle.loads(pickle.dumps(columns))
    assert copy.backend.name == columns.backend.name
    assert copy.keys == columns.keys
    assert copy.values == columns.values
    assert copy.explicit_scores == columns.explicit_scores
    assert copy.score_list() == columns.score_list()
    for name in ("probabilities", "blocks"):
        assert list(getattr(copy, name)) == list(getattr(columns, name))
    assert list(copy.order) == list(columns.order)
    assert copy.tie_free == columns.tie_free


class TestFlatColumnParity:
    @settings(max_examples=80, deadline=None)
    @given(rows=ti_rows())
    def test_tuple_independent(self, rows):
        _assert_same_outcome(lambda: TupleIndependentDatabase(rows))

    @settings(max_examples=80, deadline=None)
    @given(blocks=bid_blocks())
    def test_block_independent(self, blocks):
        _assert_same_outcome(lambda: BlockIndependentDatabase(blocks))

    @settings(max_examples=80, deadline=None)
    @given(rows=ti_rows())
    @example(rows=[("k0", "tied", "no score", 0.0), ("k1", "no score", 0.0)])
    def test_tuple_independent_build_error_is_the_row_rule(self, rows):
        _assert_build_matches_reference(
            lambda: TupleIndependentDatabase(rows), lambda: _reference_ti(rows)
        )

    @settings(max_examples=80, deadline=None)
    @given(blocks=raw_bid_blocks())
    def test_block_build_error_is_the_block_rule(self, blocks):
        _assert_build_matches_reference(
            lambda: FlatColumns.from_blocks(blocks),
            lambda: _reference_blocks(blocks),
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [("a", 1.0, 1.5), ("b", 2.0, None)],
            [("a", 1.0, 1.5), ("b", 2.0, "abc")],
            [("a", 1.0, "abc"), ("b", 2.0, 1.5)],
            [("a", 1.0, None), ("b", 2.0, -1.0)],
        ],
    )
    def test_first_of_two_bad_probabilities_raises(self, rows):
        _assert_build_matches_reference(
            lambda: TupleIndependentDatabase(rows), lambda: _reference_ti(rows)
        )

    @pytest.mark.parametrize(
        "blocks",
        [
            [
                ("a", [("x", 1.0, 0.7), ("y", 2.0, 0.7)]),
                ("b", [("z", 3.0, None)]),
            ],
            [("a", [("x", 1.0, "0.5")])],
            [("a", [("x", 1.0, Decimal("0.5"))])],
            [("a", [("x", 1.0, -1e-13)]), ("b", [("y", 2.0, -0.5)])],
        ],
    )
    def test_first_bad_block_raises(self, blocks):
        _assert_build_matches_reference(
            lambda: FlatColumns.from_blocks(blocks),
            lambda: _reference_blocks(blocks),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rounding_below_zero_is_clamped(self, backend):
        with use_backend(backend):
            columns = FlatColumns.from_blocks([("a", [("x", 1.0, -1e-13)])])
        assert list(columns.probabilities) == [0.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_native_column_kinds(self, backend):
        import numpy

        rows = [("a", 1.0, 0.5), ("b", "x", 2.0, 0.25)]
        with use_backend(backend):
            columns = TupleIndependentDatabase(rows).columns
        native = backend == "numpy"
        for name, dtype in (
            ("probabilities", numpy.float64),
            ("scores", numpy.float64),
            ("blocks", numpy.intp),
            ("order", numpy.intp),
        ):
            column = getattr(columns, name)
            assert isinstance(column, numpy.ndarray) is native
            if native:
                assert column.dtype == dtype
        assert isinstance(columns.keys, list)
        assert isinstance(columns.values, list)
