"""Loss-free JSON encoding for query values on the wire.

The HTTP front door (:mod:`repro.server`) ships :class:`~repro.query
.QueryAnswer` values and :class:`~repro.query.ConsensusQuery` objects as
JSON.  Raw answer values are *legacy-shaped* Python structures -- tuples of
tuple keys, ``(answer, expected_distance)`` pairs, membership dictionaries
whose keys may be arbitrary hashables -- and plain ``json.dumps`` would
silently collapse tuples into lists and stringify dictionary keys.  The
codec here is loss-free instead: every container that JSON cannot represent
natively travels as a small tagged object, and :func:`decode_value`
reconstructs the exact original (``decode_value(json.loads(json.dumps(
encode_value(v)))) == v``, asserted by the wire-format test suite over
every serving kind on both backends).

Tagged forms (``__repro__`` names the original type)::

    ("a", 1)              -> {"__repro__": "tuple", "items": ["a", 1]}
    {1: 0.5}              -> {"__repro__": "dict", "items": [[1, 0.5]]}
    {"t1", "t2"}          -> {"__repro__": "set", "items": ["t1", "t2"]}
    float("inf")          -> {"__repro__": "float", "value": "inf"}

Lists, finite floats, ints, bools, strings and ``None`` pass through as
themselves; dictionaries keep the natural JSON-object form whenever every
key is a plain string and the tag key is absent.  NumPy scalars are
narrowed to their Python equivalents at encode time (``.item()``), so a
NumPy-backed answer and a pure-Python answer produce the same document.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ConsensusError

#: The tag key marking an encoded container that JSON cannot carry natively.
TAG = "__repro__"


def encode_value(value: Any) -> Any:
    """A JSON-safe structure losslessly describing ``value``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        # Strict JSON has no Infinity/NaN literal; tag the repr instead.
        return {TAG: "float", "value": repr(value)}
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [encode_value(v) for v in value]
        # Canonical order: set iteration order is arbitrary, and wire
        # documents should be byte-stable for identical values.
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        kind = "set" if isinstance(value, set) else "frozenset"
        return {TAG: kind, "items": items}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and TAG not in value:
            return {key: encode_value(v) for key, v in value.items()}
        return {
            TAG: "dict",
            "items": [
                [encode_value(key), encode_value(v)]
                for key, v in value.items()
            ],
        }
    # NumPy scalars (np.float64 probabilities, np.int64 counts) narrow to
    # the exact Python equivalent, keeping documents backend-independent.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            narrowed = item()
        except TypeError:
            narrowed = value
        if type(narrowed) is not type(value):
            return encode_value(narrowed)
    raise ConsensusError(
        f"value of type {type(value).__name__!r} has no loss-free JSON "
        f"wire form: {value!r}"
    )


def decode_value(data: Any) -> Any:
    """The exact value :func:`encode_value` encoded into ``data``."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode_value(item) for item in data]
    if isinstance(data, dict):
        tag = data.get(TAG)
        if tag is None:
            return {key: decode_value(v) for key, v in data.items()}
        if tag == "float":
            return float(data["value"])
        if tag == "tuple":
            return tuple(decode_value(item) for item in data["items"])
        if tag == "set":
            return {decode_value(item) for item in data["items"]}
        if tag == "frozenset":
            return frozenset(decode_value(item) for item in data["items"])
        if tag == "dict":
            return {
                decode_value(key): decode_value(v)
                for key, v in data["items"]
            }
        raise ConsensusError(f"unknown wire tag {tag!r}")
    raise ConsensusError(
        f"malformed wire value of type {type(data).__name__!r}"
    )


# ----------------------------------------------------------------------
# ConsensusQuery <-> dict
# ----------------------------------------------------------------------
def query_to_dict(query: Any) -> Dict[str, Any]:
    """The full wire form of one :class:`~repro.query.ConsensusQuery`.

    Carries *every* field -- Monte-Carlo sizing included -- so any
    declarative query round-trips.
    """
    return {
        "family": query.family,
        "k": query.k,
        "metric": query.metric,
        "statistic": query.statistic,
        "mode": query.mode,
        "target_epsilon": query.target_epsilon,
        "confidence_level": query.confidence_level,
        "sample_cap": query.sample_cap,
        "semantics": query.semantics,
        "params": [
            [name, encode_value(value)] for name, value in query.params
        ],
        "fingerprint": query.fingerprint(),
    }


def query_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.query.ConsensusQuery` from its wire form.

    Validation runs through the builder's ``__post_init__``, so malformed
    documents raise :class:`~repro.exceptions.ConsensusError` -- the HTTP
    layer maps that to a 400 instead of executing garbage.
    """
    from repro.query.builder import ConsensusQuery

    if not isinstance(data, dict):
        raise ConsensusError(
            f"a wire query must be a JSON object, got "
            f"{type(data).__name__!r}"
        )
    params = data.get("params", [])
    if not isinstance(params, (list, tuple)):
        raise ConsensusError("wire query 'params' must be an array of pairs")
    try:
        decoded_params = tuple(
            sorted((str(name), decode_value(value)) for name, value in params)
        )
    except (TypeError, ValueError) as error:
        raise ConsensusError(f"malformed wire query params: {error}") from None
    query = ConsensusQuery(
        family=data.get("family"),
        k=data.get("k"),
        metric=data.get("metric"),
        statistic=data.get("statistic", "mean"),
        mode=data.get("mode", "auto"),
        target_epsilon=data.get("target_epsilon"),
        confidence_level=data.get("confidence_level", 0.95),
        sample_cap=data.get("sample_cap"),
        semantics=data.get("semantics"),
        params=decoded_params,
    )
    expected = data.get("fingerprint")
    if expected is not None and expected != query.fingerprint():
        raise ConsensusError(
            f"wire query fingerprint mismatch: document says {expected!r}, "
            f"decoded query is {query.fingerprint()!r}"
        )
    return query


def dumps(payload: Any) -> str:
    """Canonical JSON rendering used by every wire document."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(text: Any) -> Any:
    """Parse a wire document, normalizing errors to ConsensusError."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError) as error:
        raise ConsensusError(f"malformed JSON document: {error}") from None


def estimate_to_dict(estimate: Any) -> Optional[Dict[str, Any]]:
    """Wire form of a Monte-Carlo :class:`~repro.engine.Estimate`."""
    if estimate is None:
        return None
    return {
        "mean": encode_value(float(estimate.mean)),
        "variance": encode_value(float(estimate.variance)),
        "samples": int(estimate.samples),
    }


def estimate_from_dict(data: Optional[Dict[str, Any]]) -> Optional[Any]:
    """Rebuild an :class:`~repro.engine.Estimate` (std error re-derived)."""
    if data is None:
        return None
    from repro.engine.sampling import Estimate

    return Estimate(
        mean=decode_value(data["mean"]),
        variance=decode_value(data["variance"]),
        samples=int(data["samples"]),
    )


__all__ = [
    "TAG",
    "decode_value",
    "dumps",
    "encode_value",
    "estimate_from_dict",
    "estimate_to_dict",
    "loads",
    "query_from_dict",
    "query_to_dict",
]
