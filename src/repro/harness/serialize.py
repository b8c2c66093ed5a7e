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
  dict.  A class's own (not inherited) ``_SERIALIZE_OMIT_EMPTY``
  fields are left out when falsy and its ``_SERIALIZE_RETIRED`` fields
  still written at their retired value (:func:`drop_retired`), so
  hashes outlive both edits.

Each value is walked once per direction.  :func:`encode` dispatches on
exact type, copies a container whose items need no encoding in one
C-level call and encodes a registered dataclass from a per-class
layout.  :func:`loads` decodes stored text, every cache hit of the
result store: the tags decode inside ``json.loads``, through its
object hook.  :func:`decode` inverts :func:`encode` on data parsed
elsewhere (request bodies, ``GET /jobs/<id>/cells`` answers).

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
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from repro.errors import ConfigError

_TUPLE = "__tuple__"
_FLOAT = "__float__"
_MAP = "__map__"
_DC = "__dc__"

_TAGS = frozenset({_TUPLE, _FLOAT, _MAP, _DC})

#: Exact types :func:`encode` returns unchanged, as it does finite
#: floats; with ``float``, the parsed values :func:`decode` keeps.
_ATOMS = frozenset({str, int, bool, type(None)})
_PARSED_ATOMS = _ATOMS | {float}
_FLOATS, _TUPLES = frozenset({float}), frozenset({tuple})
_DICTS, _LISTS, _ONE = frozenset({dict}), frozenset({list}), frozenset({1})
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}

#: name -> dataclass type, for decoding tagged dataclasses.
_SERIALIZABLE: dict[str, type] = {}

#: registered class -> (name, field names, omit-empty fields, retired
#: (field, value) pairs), built when it is first encoded.
_LAYOUTS: dict[type, tuple] = {}


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


def encode(value: Any) -> Any:
    """Recursively encode ``value`` into freshly built, JSON-dumpable
    plain data."""
    cls = type(value)
    if cls in _ATOMS or cls is float and value - value == 0.0:
        return value
    layout = _LAYOUTS.get(cls)
    if layout is not None and _SERIALIZABLE.get(layout[0]) is cls:
        return _encode_fields(value, layout)
    # Containers, subclasses (np.float64, IntEnum, namedtuples), the rest.
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {_FLOAT: "nan" if math.isnan(value)
                else "inf" if value > 0 else "-inf"}
    if isinstance(value, tuple):
        return {_TUPLE: _encode_items(value)}
    if isinstance(value, list):
        return _encode_items(value)
    if isinstance(value, dict):
        # str.__subclasscheck__: each distinct key type a str (subclass).
        if all(map(str.__subclasscheck__, set(map(type, value)))) \
                and _TAGS.isdisjoint(value):
            return dict(zip(value, _encode_items(value.values())))
        return {_MAP: list(map(list, zip(_encode_items(value),
                                         _encode_items(value.values()))))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        registered = _SERIALIZABLE.get(cls.__name__)
        if registered is None or not isinstance(value, registered):
            raise ConfigError(
                f"cannot serialize unregistered dataclass "
                f"{cls.__module__}.{cls.__name__}; call "
                f"register_serializable first")
        # The registered class's own lists: a subclass inherits neither.
        namespace = registered.__dict__
        names = tuple(f.name for f in dataclasses.fields(value))
        omit = namespace.get("_SERIALIZE_OMIT_EMPTY", ())
        layout = (cls.__name__, names, [n for n in names if n in omit],
                  [(name, old) for name, (old, _) in
                   namespace.get("_SERIALIZE_RETIRED", {}).items()])
        if cls is registered:
            _LAYOUTS[cls] = layout
        return _encode_fields(value, layout)
    raise ConfigError(
        f"cannot serialize {cls.__name__!r} value: {value!r}")


def _encode_items(items) -> list:
    """``[encode(item) for item in items]``, with one C-level copy for
    items (or a list of tuples' items) that need no encoding and a call
    only for the items that do."""
    if _plain(items):
        return list(items)
    if _TUPLES.issuperset(map(type, items)) \
            and _plain(list(chain.from_iterable(items))):
        return [{_TUPLE: list(item)} for item in items]
    return [item if type(item) in _ATOMS
            or type(item) is float and item - item == 0.0
            else encode(item) for item in items]


def _plain(items) -> bool:
    """Whether every item is a JSON atom or a finite float."""
    types = set(map(type, items))
    return types <= _ATOMS or (types <= _FLOATS
                               and all(map(math.isfinite, items)))


def _encode_fields(value: Any, layout: tuple) -> dict:
    name, names, omit_empty, retired = layout
    fields = dict(zip(names, _encode_items(
        list(map(getattr, repeat(value), names)))))
    for field in omit_empty:
        if not getattr(value, field):
            del fields[field]
    for field, old in retired:
        fields[field] = encode(old)
    return {_DC: name, "fields": fields}


def decode(value: Any) -> Any:
    """Invert :func:`encode` on parsed data (request bodies, ``GET
    /jobs/<id>/cells`` answers); unknown tags raise ``ConfigError``.
    Stored text decodes in one pass through :func:`loads`."""
    if isinstance(value, list):
        return _decode_items(value, list)
    if not isinstance(value, dict):
        return value
    if _TUPLE in value:
        return _decode_items(value[_TUPLE], tuple)
    if _FLOAT in value:
        return _float_of(value[_FLOAT])
    if _MAP in value:
        return {decode(key): item if type(item) in _PARSED_ATOMS
                else decode(item) for key, item in value[_MAP]}
    if _DC in value:
        return _instance(value[_DC], _decode_values(value.get("fields", {})))
    return _decode_values(value)


def _decode_items(items, kind: type):
    """``kind(decode(item) for item in items)``: one C-level copy when
    every item is a JSON atom, or a tuple tag holding only atoms."""
    if _PARSED_ATOMS.issuperset(map(type, items)):
        return kind(items)
    if _DICTS.issuperset(map(type, items)) and _ONE.issuperset(
            map(len, items)) and all(map(dict.__contains__, items,
                                         repeat(_TUPLE))):
        rows = list(map(itemgetter(_TUPLE), items))
        if _LISTS.issuperset(map(type, rows)) and _PARSED_ATOMS.issuperset(
                map(type, chain.from_iterable(rows))):
            return kind(map(tuple, rows))
    return kind([item if type(item) in _PARSED_ATOMS else decode(item)
                 for item in items])


def _decode_values(value: dict) -> dict:
    return {key: item if type(item) in _PARSED_ATOMS else decode(item)
            for key, item in value.items()}


def loads(text: str) -> Any:
    """``decode(json.loads(text))`` in one pass: the tags decode inside
    the parser, bottom-up (an object's values are decoded before it)."""
    return json.loads(text, object_hook=_decode_object)


def _decode_object(value: dict) -> Any:
    if _TUPLE in value:
        return tuple(value[_TUPLE])
    if _TAGS.isdisjoint(value):
        return value
    if _FLOAT in value:
        return _float_of(value[_FLOAT])
    if _MAP in value:
        return dict(value[_MAP])
    return _instance(value[_DC], value.get("fields", {}))


# The rules of the value tags, shared by both decoders.

def _float_of(token: Any) -> float:
    if isinstance(token, str) and token in _NON_FINITE:
        return _NON_FINITE[token]
    raise ConfigError(f"bad {_FLOAT} token: {token!r}")


def _instance(name: Any, fields: dict) -> Any:
    cls = _SERIALIZABLE.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown serializable dataclass {name!r}; known: "
            f"{serializable_names()}")
    if "_SERIALIZE_RETIRED" in cls.__dict__:
        fields = drop_retired(cls, fields)
    return cls(**fields)


def drop_retired(cls: type, fields: dict) -> dict:
    """Decoded ``fields`` without the retired ones of ``cls``
    (``_SERIALIZE_RETIRED``: name -> (retired value, replacement)).

    A retired field is dropped at exactly its retired value (a list
    counts as the tuple); any other value would now be ignored, so it
    raises :class:`~repro.errors.ConfigError` naming the replacement.
    """
    retired = cls.__dict__.get("_SERIALIZE_RETIRED", {})
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
                      separators=(",", ":"), allow_nan=False,
                      check_circular=False)


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
    "loads",
    "register_serializable",
    "serializable_names",
    "text_hash",
]
