"""The import-and-introspect contract pass.

Where the AST pass (:mod:`repro.lint.astpass`) reads source, this pass
imports the live library and checks the contracts the platform's
guarantees hang on:

``spec-codec``
    Every :class:`~repro.harness.sweep.ScenarioSpec` field must be
    handled by the tagged codec and enter ``spec_hash`` (or sit in an
    explicit omit list), every retired field (``_SERIALIZE_RETIRED``)
    must be gone from the dataclass yet present in its encoding, and
    the canonical encoding of a default-constructed spec must match a
    pinned hash — the direct lesson of the ``_SERIALIZE_OMIT_EMPTY``
    near-miss, where a new field would have silently changed every
    historical cache key.

``capability``
    Every entry in :data:`~repro.core.protocol.PROTOCOLS` must
    *explicitly* declare the full capability-flag set and its
    ``reads`` (inheriting the silent default from ``SyncProtocol``
    does not count: a new flag added to the base would otherwise
    ripple unnoticed through every adapter, and a protocol that
    inherits "reads nothing" refuses every key), every
    :data:`~repro.engine_vec.protocols.VEC_PROTOCOLS` model must
    declare its ``reads`` rather than inherit ``VecRoundModel``'s, and
    every ``supports_vectorized`` protocol must hold at least one cell
    in the standing cross-engine equivalence matrix.

``registry-coverage``
    Every registered experiment id must have a matching
    ``benchmarks/bench_<id>*.py`` (or ``smoke_<id>*.py``) script and
    at least one test referencing it, so no experiment can rot
    outside the bench and test loops.

Each check takes its subjects as parameters (defaulting to the live
registries) so the test suite can inject fixture specs, protocols,
and registries and assert findings fire — see ``tests/test_lint.py``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConfigError
from repro.lint.report import Finding
from repro.lint.rules import RULES

#: BLAKE2b content hash of ``ScenarioSpec(seed=0)`` under the canonical
#: tagged codec.  This is the *frozen* cache-key baseline: any change
#: to the default spec's encoding re-keys every historical result in
#: the content-addressed store.  Adding a spec field is fine — give it
#: a falsy default and list it in ``_SERIALIZE_OMIT_EMPTY`` so default
#: specs keep this encoding.  Update the pin only for a deliberate,
#: cache-invalidating format change.
PINNED_DEFAULT_SPEC_HASH = "7103cb53ec34e416f5bb0ae66d1cf6aa7e74ee4f"

#: The five capability flags every protocol adapter must declare.
CAPABILITY_FLAGS = (
    "supports_dynamic_topology",
    "supports_node_churn",
    "supports_first_contact",
    "supports_vectorized",
    "supports_vectorized_faults",
)

#: ScenarioSpec fields allowed *not* to perturb ``spec_hash``.
#: Currently empty: every field participates (even ``timing``, whose
#: wall-clock *measurements* are excluded from determinism checks —
#: the flag itself still keys the cache).
HASH_EXEMPT: tuple[str, ...] = ()


def _locate(obj: Any, root: Path | None) -> tuple[str, int]:
    """``(repo-relative path, line)`` of an object's definition."""
    try:
        source = inspect.getsourcefile(obj)
        line = inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return "<unknown>", 1
    path = Path(source or "<unknown>")
    if root is not None:
        try:
            path = path.resolve().relative_to(root.resolve())
        except ValueError:
            pass
    return path.as_posix(), line


def _sentinel(value: Any) -> Any:
    """A not-equal, codec-encodable replacement for a field value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "~lint"
    if isinstance(value, tuple):
        return value + ("~lint",)
    if isinstance(value, list):
        return value + ["~lint"]
    if isinstance(value, dict):
        return {**value, "~lint": 1}
    if value is None:
        return 1
    return "~lint"


def check_spec_codec(spec_cls: type | None = None, *,
                     pinned_hash: str | None = None,
                     hash_exempt: Sequence[str] = HASH_EXEMPT,
                     root: Path | None = None) -> list[Finding]:
    """The ScenarioSpec ↔ tagged-codec ↔ ``spec_hash`` contract."""
    from repro.harness import serialize
    from repro.harness.sweep import ScenarioSpec

    if spec_cls is None:
        spec_cls = ScenarioSpec
    if pinned_hash is None and spec_cls is ScenarioSpec:
        pinned_hash = PINNED_DEFAULT_SPEC_HASH
    path, line = _locate(spec_cls, root)
    hint = RULES["spec-codec"].hint
    findings: list[Finding] = []

    def found(message: str) -> None:
        findings.append(Finding(path=path, line=line,
                                rule="spec-codec", message=message,
                                hint=hint))

    try:
        baseline = spec_cls(seed=0)
    except TypeError as exc:
        found(f"cannot default-construct {spec_cls.__name__}: {exc}")
        return findings
    try:
        base_hash = serialize.content_hash(baseline)
    except ConfigError as exc:
        found(f"default {spec_cls.__name__} does not encode under "
              f"the tagged codec: {exc}")
        return findings
    if pinned_hash is not None and base_hash != pinned_hash:
        found(f"canonical encoding of the default spec changed "
              f"(hash {base_hash} != pinned {pinned_hash}); a new "
              "field without _SERIALIZE_OMIT_EMPTY re-keys every "
              "cached result")

    field_names = {f.name for f in dataclasses.fields(spec_cls)}
    omit = tuple(getattr(spec_cls, "_SERIALIZE_OMIT_EMPTY", ()))
    for name in omit:
        if name not in field_names:
            found(f"_SERIALIZE_OMIT_EMPTY entry {name!r} is not a "
                  "spec field")
        elif getattr(baseline, name):
            found(f"_SERIALIZE_OMIT_EMPTY field {name!r} has a "
                  "truthy default, so default specs encode it "
                  "inconsistently")
    encoded = serialize.encode(baseline)["fields"]
    retired = getattr(spec_cls, "_SERIALIZE_RETIRED", {})
    for name, (old, _) in retired.items():
        if name in field_names:
            found(f"_SERIALIZE_RETIRED entry {name!r} is still a spec "
                  "field")
        elif name not in encoded or encoded[name] != serialize.encode(old):
            found(f"the default spec's encoding lacks retired field "
                  f"{name!r} at its retired value, so every spec that "
                  "never set it re-keys")

    for field in dataclasses.fields(spec_cls):
        sentinel = _sentinel(getattr(baseline, field.name))
        try:
            probe = dataclasses.replace(
                baseline, **{field.name: sentinel})
        except TypeError:
            continue
        try:
            probe_hash = serialize.content_hash(probe)
        except ConfigError as exc:
            found(f"field {field.name!r} is not handled by the "
                  f"tagged codec: {exc}")
            continue
        if probe_hash == base_hash and field.name not in hash_exempt:
            found(f"field {field.name!r} does not enter spec_hash — "
                  "distinct cells would share one cache key")

    if hasattr(spec_cls, "to_dict") and hasattr(spec_cls, "from_dict"):
        try:
            wire = json.loads(json.dumps(baseline.to_dict()))
            if spec_cls.from_dict(wire) != baseline:
                found("to_dict/from_dict round trip is lossy for the "
                      "default spec")
        except (ConfigError, TypeError, ValueError) as exc:
            found(f"to_dict/from_dict round trip failed: {exc}")
    return findings


def _live_protocols() -> Mapping[str, type]:
    from repro.core.protocol import PROTOCOLS, get_protocol

    get_protocol("ftgcs")  # forces the lazy builtin load
    return dict(PROTOCOLS)


def check_capabilities(protocols: Mapping[str, type] | None = None,
                       models: Mapping[str, type] | None = None, *,
                       root: Path | None = None) -> list[Finding]:
    """Every protocol declares the full capability-flag set and its
    ``reads`` itself, and every vectorized round model its ``reads``."""
    from repro.core.protocol import SyncProtocol
    from repro.engine_vec.protocols import VEC_PROTOCOLS, VecRoundModel

    if protocols is None:
        protocols = _live_protocols()
    if models is None:
        models = VEC_PROTOCOLS
    findings = []
    subjects = [(protocols, "protocol", SyncProtocol,
                 CAPABILITY_FLAGS + ("reads",)),
                (models, "vectorized model", VecRoundModel, ("reads",))]
    for registry, what, base, names in subjects:
        for name in sorted(registry):
            cls = registry[name]
            declared_in = [k for k in cls.__mro__
                           if k is not base and k is not object]
            missing = [attr for attr in names if not any(
                attr in k.__dict__ for k in declared_in)]
            if missing:
                path, line = _locate(cls, root)
                findings.append(Finding(
                    path=path, line=line, rule="capability",
                    message=f"{what} {name!r} inherits "
                            f"{', '.join(missing)} from the "
                            f"{base.__name__} default instead of "
                            "declaring it",
                    hint=RULES["capability"].hint))
    return findings


def check_equivalence_coverage(
        protocols: Mapping[str, type] | None = None,
        cells: Iterable[Any] | None = None, *,
        root: Path | None = None) -> list[Finding]:
    """Every ``supports_vectorized`` protocol has an equivalence cell."""
    if protocols is None:
        protocols = _live_protocols()
    if cells is None:
        from repro.engine_vec.equivalence import quick_cells
        cells = quick_cells()
    covered = {cell.protocol for cell in cells}
    findings = []
    for name in sorted(protocols):
        cls = protocols[name]
        if not getattr(cls, "supports_vectorized", False):
            continue
        if name in covered:
            continue
        path, line = _locate(cls, root)
        findings.append(Finding(
            path=path, line=line, rule="capability",
            message=f"protocol {name!r} declares supports_vectorized "
                    "but has no cell in the standing equivalence "
                    "matrix (engine_vec.equivalence.quick_cells)",
            hint=RULES["capability"].hint))
    return findings


def _experiment_anchor(root: Path, experiment_id: str
                       ) -> tuple[str, int]:
    """``file:line`` of an experiment's registration, best effort."""
    rel = Path("src/repro/harness/experiments.py")
    source = root / rel
    if source.is_file():
        for lineno, text in enumerate(
                source.read_text(encoding="utf-8").splitlines(),
                start=1):
            if f'"{experiment_id}"' in text:
                return rel.as_posix(), lineno
    return rel.as_posix(), 1


def check_registry_coverage(ids: Sequence[str] | None = None, *,
                            root: Path) -> list[Finding]:
    """Every experiment id has a bench/smoke script and a test."""
    if ids is None:
        from repro.harness.registry import REGISTRY

        ids = REGISTRY.ids()
    bench_dir = root / "benchmarks"
    test_dir = root / "tests"
    test_texts = [p.read_text(encoding="utf-8")
                  for p in sorted(test_dir.glob("test_*.py"))]
    findings = []
    hint = RULES["registry-coverage"].hint
    for experiment_id in ids:
        path, line = _experiment_anchor(root, experiment_id)
        scripts = (list(bench_dir.glob(f"bench_{experiment_id}*.py"))
                   + list(bench_dir.glob(f"smoke_{experiment_id}*.py")))
        if not scripts:
            findings.append(Finding(
                path=path, line=line, rule="registry-coverage",
                message=f"experiment {experiment_id!r} has no "
                        f"benchmarks/bench_{experiment_id}*.py or "
                        f"smoke_{experiment_id}*.py script",
                hint=hint))
        # Lookbehind instead of \b so underscore-joined references
        # (``t10_trigger_exclusion``, ``test_t10_no_violations``)
        # count as coverage.
        pattern = re.compile(
            rf"(?<![A-Za-z0-9]){re.escape(experiment_id)}")
        if not any(pattern.search(text) for text in test_texts):
            findings.append(Finding(
                path=path, line=line, rule="registry-coverage",
                message=f"experiment {experiment_id!r} is not "
                        "referenced by any test under tests/",
                hint=hint))
    return findings


def run_contracts(root: Path) -> list[Finding]:
    """The full contract pass against the live library."""
    findings = []
    findings += check_spec_codec(root=root)
    findings += check_capabilities(root=root)
    findings += check_equivalence_coverage(root=root)
    findings += check_registry_coverage(root=root)
    return findings


__all__ = [
    "CAPABILITY_FLAGS",
    "HASH_EXEMPT",
    "PINNED_DEFAULT_SPEC_HASH",
    "check_capabilities",
    "check_equivalence_coverage",
    "check_registry_coverage",
    "check_spec_codec",
    "run_contracts",
]
