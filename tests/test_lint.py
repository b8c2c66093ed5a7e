"""Tests for :mod:`repro.lint` — the determinism & contract linter.

Three layers:

* AST-rule fixtures: for each rule, one snippet that must fire and a
  minimally different snippet that must stay quiet (the quiet twin
  guards against over-triggering, which would train people to
  pragma-spam).
* Pragma round trip: a pragma with a reason suppresses; a reasonless
  pragma still suppresses but is itself flagged ``bare-pragma``.
* Contract fixtures: deliberately broken dataclasses/protocol classes
  produce exactly one finding each, and the live tree produces none.
"""

import dataclasses
import json
from collections import namedtuple

from repro.core.protocol import Reads, SyncProtocol
from repro.engine_vec.protocols import VecRoundModel
from repro.harness import serialize
from repro.lint import format_json, repo_root, run_lint
from repro.lint.astpass import cross_module_findings, lint_module
from repro.lint.contracts import (PINNED_DEFAULT_SPEC_HASH,
                                  check_capabilities,
                                  check_equivalence_coverage,
                                  check_registry_coverage,
                                  check_spec_codec)
from repro.lint.pragmas import apply_suppressions, parse_pragmas
from repro.lint.report import report_dict


def _rules(findings):
    return [finding.rule for finding in findings]


def _lint(text, relpath="src/repro/example.py"):
    findings, _ = lint_module(text, relpath)
    return findings


class TestRawRng:
    def test_unseeded_random_fires(self):
        findings = _lint(
            "import random\n"
            "rng = random.Random(42)\n")
        assert _rules(findings) == ["raw-rng"]
        assert findings[0].line == 2

    def test_alias_resolution_fires(self):
        findings = _lint(
            "from random import Random\n"
            "rng = Random()\n")
        assert _rules(findings) == ["raw-rng"]

    def test_numpy_default_rng_fires(self):
        findings = _lint(
            "import numpy as np\n"
            "gen = np.random.default_rng(7)\n")
        assert _rules(findings) == ["raw-rng"]

    def test_derive_seed_argument_is_quiet(self):
        findings = _lint(
            "import random\n"
            "from repro.sim.rng import derive_seed\n"
            "rng = random.Random(derive_seed(0, 'net/loss'))\n")
        assert findings == []

    def test_derived_name_is_quiet(self):
        findings = _lint(
            "import random\n"
            "from repro.sim.rng import derive_seed\n"
            "def build(seed):\n"
            "    sub = derive_seed(seed, 'fault/arrival')\n"
            "    return random.Random(sub)\n")
        assert findings == []

    def test_rng_home_module_is_exempt(self):
        findings = _lint(
            "import random\n"
            "rng = random.Random(42)\n",
            relpath="src/repro/sim/rng.py")
        assert findings == []


class TestWallClock:
    def test_time_time_fires(self):
        findings = _lint(
            "import time\n"
            "stamp = time.time()\n")
        assert _rules(findings) == ["wall-clock"]

    def test_perf_counter_fires(self):
        findings = _lint(
            "import time\n"
            "started = time.perf_counter()\n")
        assert _rules(findings) == ["wall-clock"]

    def test_datetime_now_fires(self):
        findings = _lint(
            "import datetime\n"
            "now = datetime.datetime.now()\n")
        assert _rules(findings) == ["wall-clock"]

    def test_simulated_clock_attribute_is_quiet(self):
        # `self.scheduler.time()` is the simulated clock, not the
        # wall clock — the resolver must not match bare `.time()`.
        findings = _lint(
            "def now(self):\n"
            "    return self.scheduler.time()\n")
        assert findings == []


class TestUnorderedIter:
    SENSITIVE_SET_LOOP = (
        "def fire(scheduler, nodes):\n"
        "    for node in {1, 2, 3}:\n"
        "        scheduler.call_at(node, 0.0)\n")

    def test_set_literal_with_scheduling_fires(self):
        findings = _lint(self.SENSITIVE_SET_LOOP)
        assert _rules(findings) == ["unordered-iter"]

    def test_sorted_wrapper_is_quiet(self):
        findings = _lint(self.SENSITIVE_SET_LOOP.replace(
            "{1, 2, 3}", "sorted({1, 2, 3})"))
        assert findings == []

    def test_list_wrapper_does_not_launder(self):
        # list() preserves the unordered set order; only sorted()
        # resolves the finding.
        findings = _lint(self.SENSITIVE_SET_LOOP.replace(
            "{1, 2, 3}", "list({1, 2, 3})"))
        assert _rules(findings) == ["unordered-iter"]

    def test_keys_with_draw_fires(self):
        findings = _lint(
            "def jitter(rng, delays):\n"
            "    for key in delays.keys():\n"
            "        delays[key] += rng.random()\n")
        assert _rules(findings) == ["unordered-iter"]

    def test_set_typed_name_with_edge_append_fires(self):
        findings = _lint(
            "def build(n):\n"
            "    active = {0, 1}\n"
            "    edges = []\n"
            "    for node in active:\n"
            "        edges.append((node, node + 1))\n")
        assert _rules(findings) == ["unordered-iter"]

    def test_order_insensitive_body_is_quiet(self):
        findings = _lint(
            "def total(values):\n"
            "    acc = 0\n"
            "    for value in {1, 2, 3}:\n"
            "        acc += value\n"
            "    return acc\n")
        assert findings == []

    def test_comprehension_over_set_with_draw_fires(self):
        findings = _lint(
            "def noise(rng):\n"
            "    return [rng.random() for _ in {1, 2}]\n")
        assert _rules(findings) == ["unordered-iter"]


class TestStreamLabel:
    def test_vec_module_without_prefix_fires(self):
        findings, labels = lint_module(
            "from repro.sim.rng import derive_seed\n"
            "def streams(seed):\n"
            "    return derive_seed(seed, 'cell/delay')\n",
            "src/repro/engine_vec/streams.py")
        assert _rules(findings) == ["stream-label"]
        assert [label.template for label in labels] == ["cell/delay"]

    def test_vec_module_with_prefix_is_quiet(self):
        findings, labels = lint_module(
            "from repro.sim.rng import derive_seed\n"
            "def streams(seed):\n"
            "    return derive_seed(seed, f'vec/cell/{seed}')\n",
            "src/repro/engine_vec/streams.py")
        assert findings == []
        # F-string labels normalize to {} templates.
        assert [label.template for label in labels] == ["vec/cell/{}"]

    def test_cross_module_collision_flags_every_site(self):
        _, labels_a = lint_module(
            "from repro.sim.rng import derive_seed\n"
            "x = derive_seed(0, 'fault/arrival')\n",
            "src/repro/a.py")
        _, labels_b = lint_module(
            "from repro.sim.rng import derive_seed\n"
            "y = derive_seed(0, 'fault/arrival')\n",
            "src/repro/b.py")
        findings = cross_module_findings(labels_a + labels_b)
        assert _rules(findings) == ["stream-label", "stream-label"]
        assert {finding.path for finding in findings} == {
            "src/repro/a.py", "src/repro/b.py"}

    def test_same_module_reuse_is_not_a_collision(self):
        _, labels = lint_module(
            "from repro.sim.rng import derive_seed\n"
            "x = derive_seed(0, 'fault/arrival')\n"
            "y = derive_seed(1, 'fault/arrival')\n",
            "src/repro/a.py")
        assert cross_module_findings(labels) == []


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        text = ("import random\n"
                "rng = random.Random(42)  "
                "# repro: allow[raw-rng] -- fixture stream\n")
        findings = _lint(text)
        index = parse_pragmas(text, "src/repro/example.py")
        assert index.findings == []
        assert apply_suppressions(findings, index) == []

    def test_standalone_pragma_covers_next_line(self):
        text = ("import random\n"
                "# repro: allow[raw-rng] -- fixture stream\n"
                "rng = random.Random(42)\n")
        findings = _lint(text)
        index = parse_pragmas(text, "src/repro/example.py")
        assert apply_suppressions(findings, index) == []

    def test_pragma_does_not_leak_past_its_line(self):
        text = ("import random\n"
                "# repro: allow[raw-rng] -- fixture stream\n"
                "rng = random.Random(42)\n"
                "other = random.Random(43)\n")
        findings = _lint(text)
        index = parse_pragmas(text, "src/repro/example.py")
        kept = apply_suppressions(findings, index)
        assert _rules(kept) == ["raw-rng"]
        assert kept[0].line == 4

    def test_reasonless_pragma_round_trip(self):
        # Still suppresses, but the pragma itself becomes a finding —
        # and that finding survives suppression attempts.
        text = ("import random\n"
                "rng = random.Random(42)  # repro: allow[raw-rng]\n")
        findings = _lint(text)
        index = parse_pragmas(text, "src/repro/example.py")
        kept = apply_suppressions(findings + index.findings, index)
        assert _rules(kept) == ["bare-pragma"]
        assert "no reason" in kept[0].message

    def test_unknown_rule_pragma_is_flagged(self):
        text = "x = 1  # repro: allow[no-such-rule] -- typo\n"
        index = parse_pragmas(text, "src/repro/example.py")
        assert _rules(index.findings) == ["bare-pragma"]
        assert "no-such-rule" in index.findings[0].message


def _register(monkeypatch, cls):
    """Install a fixture dataclass in the codec registry by name."""
    monkeypatch.setitem(serialize._SERIALIZABLE, cls.__name__, cls)


class TestSpecCodecContract:
    def _v1(self):
        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            seed: int = 0
            rounds: int = 8
        return GhostSpec

    def test_live_spec_matches_pinned_hash(self):
        from repro.harness.sweep import ScenarioSpec

        assert (serialize.content_hash(ScenarioSpec(seed=0))
                == PINNED_DEFAULT_SPEC_HASH)

    def test_clean_fixture_spec_passes(self, monkeypatch):
        v1 = self._v1()
        _register(monkeypatch, v1)
        pinned = serialize.content_hash(v1(seed=0))
        assert check_spec_codec(v1, pinned_hash=pinned) == []

    def test_ghost_field_rekeys_cache_exactly_one_finding(
            self, monkeypatch):
        # Simulate the PR-9 near-miss: a later revision of the same
        # class adds a field without _SERIALIZE_OMIT_EMPTY, silently
        # changing every historical cache key.
        v1 = self._v1()
        _register(monkeypatch, v1)
        pinned = serialize.content_hash(v1(seed=0))

        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            seed: int = 0
            rounds: int = 8
            extra: tuple = ()
        _register(monkeypatch, GhostSpec)
        findings = check_spec_codec(GhostSpec, pinned_hash=pinned)
        assert _rules(findings) == ["spec-codec"]
        assert "pinned" in findings[0].message

    def test_omit_empty_ghost_field_is_quiet(self, monkeypatch):
        # The sanctioned way to add a field: falsy default + an
        # _SERIALIZE_OMIT_EMPTY entry keeps historical keys intact.
        v1 = self._v1()
        _register(monkeypatch, v1)
        pinned = serialize.content_hash(v1(seed=0))

        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            _SERIALIZE_OMIT_EMPTY = ("extra",)
            seed: int = 0
            rounds: int = 8
            extra: tuple = ()
        _register(monkeypatch, GhostSpec)
        assert check_spec_codec(GhostSpec, pinned_hash=pinned) == []

    def test_truthy_default_in_omit_list_fires(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            _SERIALIZE_OMIT_EMPTY = ("rounds",)
            seed: int = 0
            rounds: int = 8
        _register(monkeypatch, GhostSpec)
        pinned = serialize.content_hash(GhostSpec(seed=0))
        findings = check_spec_codec(GhostSpec, pinned_hash=pinned)
        assert _rules(findings) == ["spec-codec"]
        assert "truthy default" in findings[0].message

    def test_omit_entry_for_missing_field_fires(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            _SERIALIZE_OMIT_EMPTY = ("no_such_field",)
            seed: int = 0
        _register(monkeypatch, GhostSpec)
        pinned = serialize.content_hash(GhostSpec(seed=0))
        findings = check_spec_codec(GhostSpec, pinned_hash=pinned)
        assert _rules(findings) == ["spec-codec"]
        assert "not a spec field" in findings[0].message

    def test_retired_field_is_quiet(self, monkeypatch):
        # The sanctioned way to remove a field: a _SERIALIZE_RETIRED
        # entry keeps historical keys intact.
        v1 = self._v1()
        _register(monkeypatch, v1)
        pinned = serialize.content_hash(v1(seed=0))

        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            _SERIALIZE_RETIRED = {"rounds": (8, "nothing")}
            seed: int = 0
        _register(monkeypatch, GhostSpec)
        assert check_spec_codec(GhostSpec, pinned_hash=pinned) == []

    def test_retired_entry_that_is_still_a_field_fires(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class GhostSpec:
            _SERIALIZE_RETIRED = {"rounds": (8, "nothing")}
            seed: int = 0
            rounds: int = 8
        _register(monkeypatch, GhostSpec)
        pinned = serialize.content_hash(GhostSpec(seed=0))
        findings = check_spec_codec(GhostSpec, pinned_hash=pinned)
        assert set(_rules(findings)) == {"spec-codec"}
        assert any("'rounds' is still a spec field" in finding.message
                   for finding in findings)

    def test_retired_key_missing_from_the_encoding_fires(
            self, monkeypatch):
        # The codec reads the class registered under the name; a
        # subclass declaring a retired field there is encoded without
        # it, so every spec that never set the field would re-key.
        v1 = self._v1()
        _register(monkeypatch, v1)
        pinned = serialize.content_hash(v1(seed=0))

        class GhostSpec(v1):
            _SERIALIZE_RETIRED = {"extra": ((), "nothing")}
        findings = check_spec_codec(GhostSpec, pinned_hash=pinned)
        assert _rules(findings) == ["spec-codec"]
        assert "lacks retired field 'extra'" in findings[0].message


class _ProtoBase:
    """Fixture protocol base declaring the full capability set."""

    supports_dynamic_topology = False
    supports_node_churn = False
    supports_first_contact = False
    supports_vectorized = False
    supports_vectorized_faults = False
    reads = Reads()


class TestCapabilityContract:
    def test_full_declaration_passes(self):
        assert check_capabilities({"dummy": _ProtoBase}) == []

    def test_missing_flag_exactly_one_finding(self):
        class Partial:
            supports_dynamic_topology = True
            supports_node_churn = False
            supports_first_contact = False
            # supports_vectorized deliberately not declared

        findings = check_capabilities({"partial": Partial})
        assert _rules(findings) == ["capability"]
        assert "supports_vectorized" in findings[0].message

    def test_inherited_declaration_counts(self):
        # A subclass refining one flag inherits the rest from a base
        # that declares them — that is an explicit declaration.
        class Child(_ProtoBase):
            supports_vectorized = True

        cell = namedtuple("Cell", "protocol")
        assert check_capabilities({"child": Child}) == []
        assert check_equivalence_coverage(
            {"child": Child}, cells=[cell(protocol="child")]) == []

    def test_vectorized_without_equivalence_cell_fires(self):
        class Child(_ProtoBase):
            supports_vectorized = True

        findings = check_equivalence_coverage({"child": Child},
                                              cells=[])
        assert _rules(findings) == ["capability"]
        assert "equivalence" in findings[0].message

    def test_protocol_inheriting_reads_fires(self):
        class Unread(SyncProtocol):
            supports_dynamic_topology = False
            supports_node_churn = False
            supports_first_contact = False
            supports_vectorized = False
            supports_vectorized_faults = False

        findings = check_capabilities({"unread": Unread}, {})
        assert _rules(findings) == ["capability"]
        assert ("protocol 'unread' inherits reads from the SyncProtocol "
                "default") in findings[0].message

    def test_model_inheriting_reads_fires(self):
        class Bare(VecRoundModel):
            name = "bare"

        findings = check_capabilities({}, {"bare": Bare})
        assert _rules(findings) == ["capability"]
        assert ("vectorized model 'bare' inherits reads from the "
                "VecRoundModel default") in findings[0].message

    def test_model_declaring_reads_passes(self):
        class Declared(VecRoundModel):
            reads = Reads(payload=("until",), required=("until",))

        class Child(Declared):
            pass

        assert check_capabilities(
            {}, {"declared": Declared, "child": Child}) == []

    def test_live_protocols_declare_everything(self):
        assert check_capabilities() == []


class TestRegistryCoverageContract:
    def test_live_registry_is_fully_covered(self):
        assert check_registry_coverage(root=repo_root()) == []

    def test_ghost_experiment_fires_both_checks(self):
        # Build the id at runtime so this very file's text cannot
        # satisfy the tests-reference check.
        ghost = "t" + str(73)
        findings = check_registry_coverage([ghost], root=repo_root())
        assert _rules(findings) == ["registry-coverage",
                                    "registry-coverage"]
        messages = " / ".join(finding.message for finding in findings)
        assert "no pinned quick table" in messages
        assert "not referenced by any test" in messages


class TestFullTree:
    def test_merged_tree_is_clean(self):
        report = run_lint()
        assert report.ok, "\n".join(
            finding.location() + " " + finding.message
            for finding in report.findings)
        assert report.files_scanned > 50

    def test_json_report_shape(self):
        report = run_lint(paths=["src/repro/lint"], contracts=False)
        payload = json.loads(format_json(report))
        assert payload["ok"] is True
        assert payload["total"] == 0
        assert payload["findings"] == []
        assert payload == report_dict(report)

    def test_cli_lint_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--no-contracts",
                     "src/repro/lint"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_cli_lint_json_parses(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format", "json", "--no-contracts",
                     "src/repro/lint"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
