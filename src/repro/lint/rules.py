"""Rule definitions for ``repro lint``.

Every determinism guarantee the reproduction makes — bit-identical
serial vs parallel sweeps, the cross-engine equivalence matrix,
zero-execution cache hits — rests on conventions nothing in Python
enforces.  Each :class:`Rule` here names one such convention; the AST
pass (:mod:`repro.lint.astpass`) and the contract pass
(:mod:`repro.lint.contracts`) report violations under these ids, and
the pragma layer (:mod:`repro.lint.pragmas`) suppresses deliberate
ones with an inline reason.  A ``repro: allow[<rule>] -- <reason>``
pragma is the one exception mechanism, so every exception and its
justification live next to the code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, what it enforces, how to fix it."""

    id: str
    summary: str
    hint: str


#: The rule set, keyed by stable id.  Ids are part of the pragma
#: surface (``repro: allow[raw-rng] -- ...``) — never rename one.
RULES: dict[str, Rule] = {rule.id: rule for rule in (
    Rule(
        id="raw-rng",
        summary="RNG constructed outside repro.sim.rng with a seed "
                "not derived via derive_seed",
        hint="seed the generator with derive_seed(seed, \"<stream>\") "
             "so the stream is named, isolated, and replayable"),
    Rule(
        id="wall-clock",
        summary="wall-clock read (time.time/perf_counter/datetime.now) "
                "in a deterministic module",
        hint="use sim.now for simulated time; if the reading is "
             "deliberately wall-clock (timing extras, service "
             "bookkeeping), add a repro: allow pragma with the reason"),
    Rule(
        id="unordered-iter",
        summary="iteration over a set/dict.keys() drives event "
                "scheduling, RNG draws, or edge building",
        hint="wrap the iterable in sorted(...) so the visit order is "
             "deterministic across processes and hash seeds"),
    Rule(
        id="stream-label",
        summary="derive_seed stream-label collision across modules, "
                "or a vectorized stream without the vec/ prefix",
        hint="give every independent consumer its own label; streams "
             "drawn in repro.engine_vec must start with \"vec/\""),
    Rule(
        id="spec-codec",
        summary="ScenarioSpec field not handled by the tagged codec, "
                "absent from spec_hash, or hash-breaking by default",
        hint="encode the field canonically and either let it enter "
             "spec_hash or list it in _SERIALIZE_OMIT_EMPTY (falsy "
             "default) so historical cache keys survive; a removed "
             "field goes in _SERIALIZE_RETIRED with its old value"),
    Rule(
        id="capability",
        summary="protocol or vectorized round model missing an "
                "explicit capability-flag or reads declaration, or "
                "supports_vectorized without an equivalence-matrix cell",
        hint="declare every supports_* flag and reads on the protocol "
             "class, reads on each VEC_PROTOCOLS model, and give "
             "vectorized protocols a cell in "
             "engine_vec.equivalence.quick_cells"),
    Rule(
        id="registry-coverage",
        summary="registered experiment without a quick table pinned "
                "in tests/golden_outputs.json or without a test "
                "referencing it",
        hint="record its quick table with tests/record_golden.py "
             "(make golden) and reference the id from a test"),
    Rule(
        id="bare-pragma",
        summary="repro: allow pragma without a reason, or naming an "
                "unknown rule",
        hint="write the comment `repro: allow[<rule>] -- <why this violation is "
             "deliberate>"),
)}

#: Rule ids the six *testable* families collapse to (capability and
#: registry coverage ride one contract pass; bare-pragma polices the
#: suppression mechanism itself).
RULE_IDS: tuple[str, ...] = tuple(RULES)

#: The one module allowed to construct generators from raw seeds: the
#: stream factory itself.
RNG_HOME_SUFFIX = "repro/sim/rng.py"


__all__ = ["RNG_HOME_SUFFIX", "RULES", "RULE_IDS", "Rule"]
