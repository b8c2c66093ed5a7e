"""Canonical JSON-safe serialization for specs and sweep results.

The simulation service (``repro.service``) needs two things plain
:mod:`json` cannot give it:

1. **Round-tripping specs.**  A :class:`~repro.harness.sweep.ScenarioSpec`
   carries tuples (``key``, ``graph_args``), dataclasses
   (:class:`~repro.core.params.Parameters`, baseline parameter sets in
   ``payload``), and occasionally non-finite floats (``Parameters.eps``
   is NaN for raw ``custom`` builds).  ``POST /jobs`` bodies and the
   on-disk scenario library must encode all of that and decode it back
   *bit-identically*, so a served run is indistinguishable from a
   direct ``run_experiment``.
2. **Round-tripping results.**  The content-addressed result store
   persists whole :class:`~repro.harness.sweep.SweepCellResult` objects
   — :class:`~repro.core.protocol.ProtocolRunResult` with a
   :class:`~repro.core.system.RunResult` detail, skew-snapshot series,
   ``edge_maxima`` dicts keyed by int tuples — as JSON.  Experiment
   ``finish`` steps then fold *decoded* cells into tables, so decoding
   must reproduce the exact objects (types, tuple-ness, float bits)
   the worker produced.

Both ride one tagged, recursive codec:

- JSON natives (``None``, ``bool``, ``int``, ``str``, finite
  ``float``, lists, str-keyed dicts) pass through untouched.
- Tuples become ``{"__tuple__": [...]}``.
- Non-finite floats become ``{"__float__": "nan" | "inf" | "-inf"}``
  (strict encoders reject the bare tokens).
- Dicts with non-string keys (or keys colliding with the tag
  namespace) become ``{"__map__": [[key, value], ...]}`` with
  insertion order preserved.
- Registered dataclasses become ``{"__dc__": "<name>",
  "fields": {...}}``; decoding instantiates the registered class with
  the decoded fields.  Only classes registered via
  :func:`register_serializable` decode — unknown tags raise
  :class:`~repro.errors.ConfigError` rather than silently producing a
  dict.  A class's ``_SERIALIZE_OMIT_EMPTY`` fields are left out when
  falsy and its ``_SERIALIZE_RETIRED`` fields still written at their
  retired value (:func:`drop_retired`), so hashes outlive both edits.

Float exactness: ``json.dumps`` emits ``repr(float)``, Python's
shortest round-trip representation, so every finite float decodes to
the identical bit pattern — the foundation of the service's
"byte-identical to a direct run" guarantee.

:func:`canonical_json` (sorted keys, minimal separators) is the
hashing form: the same value always encodes to the same byte string
across processes and Python versions, which is what makes the BLAKE2b
spec hash (:func:`content_hash`) a safe cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any

from repro.errors import ConfigError

_TUPLE = "__tuple__"
_FLOAT = "__float__"
_MAP = "__map__"
_DC = "__dc__"

_TAGS = frozenset({_TUPLE, _FLOAT, _MAP, _DC})

#: name -> dataclass type, for decoding tagged dataclasses.
_SERIALIZABLE: dict[str, type] = {}


def register_serializable(cls: type, name: str | None = None) -> type:
    """Register a dataclass for tagged encoding/decoding.

    Usable as a decorator.  The registered ``name`` (default: the
    class name) is what travels in the JSON; re-registering the same
    class under the same name is a no-op, a *different* class under a
    taken name is an error.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigError(
            f"register_serializable needs a dataclass: {cls!r}")
    key = name or cls.__name__
    existing = _SERIALIZABLE.get(key)
    if existing is not None and existing is not cls:
        raise ConfigError(
            f"serializable name {key!r} already taken by {existing!r}")
    _SERIALIZABLE[key] = cls
    return cls


def serializable_names() -> list[str]:
    """Registered dataclass tag names (sorted)."""
    return sorted(_SERIALIZABLE)


def _encode_float(value: float) -> Any:
    if math.isnan(value):
        return {_FLOAT: "nan"}
    return {_FLOAT: "inf" if value > 0 else "-inf"}


def encode(value: Any) -> Any:
    """Recursively encode ``value`` into JSON-dumpable plain data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return _encode_float(value)
    if isinstance(value, tuple):
        return {_TUPLE: [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        plain = all(isinstance(key, str) for key in value)
        if plain and not any(key in _TAGS for key in value):
            return {key: encode(item) for key, item in value.items()}
        return {_MAP: [[encode(key), encode(item)]
                       for key, item in value.items()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        registered = _SERIALIZABLE.get(name)
        if registered is None or not isinstance(value, registered):
            raise ConfigError(
                f"cannot serialize unregistered dataclass "
                f"{type(value).__module__}.{name}; call "
                f"register_serializable first")
        omit_empty = getattr(registered, "_SERIALIZE_OMIT_EMPTY", ())
        fields = {f.name: encode(getattr(value, f.name))
                  for f in dataclasses.fields(value)
                  if f.name not in omit_empty or getattr(value, f.name)}
        # The class's own namespace: a getattr miss is several times
        # slower, and this runs for every dataclass of every cell.
        retired = registered.__dict__.get("_SERIALIZE_RETIRED", {})
        for field, (old, _) in retired.items():
            fields[field] = encode(old)
        return {_DC: name, "fields": fields}
    raise ConfigError(
        f"cannot serialize {type(value).__name__!r} value: {value!r}")


def decode(value: Any) -> Any:
    """Invert :func:`encode`; unknown tags raise ``ConfigError``."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if not isinstance(value, dict):
        return value
    if _TUPLE in value:
        return tuple(decode(item) for item in value[_TUPLE])
    if _FLOAT in value:
        token = value[_FLOAT]
        if token == "nan":
            return math.nan
        if token == "inf":
            return math.inf
        if token == "-inf":
            return -math.inf
        raise ConfigError(f"bad {_FLOAT} token: {token!r}")
    if _MAP in value:
        return {decode(key): decode(item) for key, item in value[_MAP]}
    if _DC in value:
        name = value[_DC]
        cls = _SERIALIZABLE.get(name)
        if cls is None:
            raise ConfigError(
                f"unknown serializable dataclass {name!r}; known: "
                f"{serializable_names()}")
        fields = {key: decode(item)
                  for key, item in value.get("fields", {}).items()}
        if "_SERIALIZE_RETIRED" in cls.__dict__:
            fields = drop_retired(cls, fields)
        return cls(**fields)
    return {key: decode(item) for key, item in value.items()}


def drop_retired(cls: type, fields: dict) -> dict:
    """Decoded ``fields`` without the retired ones of ``cls``
    (``_SERIALIZE_RETIRED``: name -> (retired value, replacement)).

    A retired field is dropped at exactly its retired value (a list
    counts as the tuple); any other value would now be ignored, so it
    raises :class:`~repro.errors.ConfigError` naming the replacement.
    """
    retired = getattr(cls, "_SERIALIZE_RETIRED", {})
    for name, (old, replacement) in retired.items():
        value = fields.get(name, old)
        value = tuple(value) if isinstance(value, list) else value
        if type(value) is not type(old) or value != old:
            raise ConfigError(
                f"{cls.__name__} field {name!r} is retired; use "
                f"{replacement} (got {name}={value!r})")
    return {name: v for name, v in fields.items() if name not in retired}


def canonical_json(value: Any) -> str:
    """The canonical (hashable) JSON text of an encodable value.

    Sorted keys and minimal separators: the same value produces the
    same byte string in every process, every time.
    """
    return json.dumps(encode(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def content_hash(value: Any, *, digest_size: int = 20) -> str:
    """Hex BLAKE2b digest of :func:`canonical_json` — the cache key."""
    return text_hash(canonical_json(value), digest_size=digest_size)


def text_hash(text: str, *, digest_size: int = 20) -> str:
    """:func:`content_hash` of the value whose canonical JSON is
    ``text``, computed from the text alone."""
    return hashlib.blake2b(text.encode("utf-8"),
                           digest_size=digest_size).hexdigest()


def _register_builtin_types() -> None:
    """Register every dataclass that travels in specs or results.

    Specs carry :class:`Parameters` and the baseline parameter sets;
    results carry the full protocol-result object graph.  Registering
    them here (import time) keeps ``encode``/``decode`` symmetric in
    every process, including pool workers and the served job path.
    """
    from repro.analysis.bounds import BoundsReport
    from repro.analysis.metrics import SkewSnapshot
    from repro.analysis.sampling import SkewMaxima
    from repro.baselines.gcs_single import GcsParams
    from repro.baselines.srikanth_toueg import StParams
    from repro.core.params import Parameters
    from repro.core.protocol import ProtocolRunResult
    from repro.core.system import RunResult

    for cls in (Parameters, GcsParams, StParams, BoundsReport,
                SkewSnapshot, SkewMaxima, RunResult, ProtocolRunResult):
        register_serializable(cls)


_register_builtin_types()


__all__ = [
    "canonical_json",
    "content_hash",
    "decode",
    "drop_retired",
    "encode",
    "register_serializable",
    "serializable_names",
    "text_hash",
]
