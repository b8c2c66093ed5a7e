"""Tests for the command-line interface (registry subcommands)."""

import json

import pytest

from repro.cli import build_parser, list_experiments, main


class TestList:
    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t01" in out and "t16" in out

    def test_listing_mentions_all_experiments(self):
        text = list_experiments()
        for i in range(1, 19):
            assert f"t{i:02d}" in text

    def test_list_json(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in entries] == [f"t{i:02d}"
                                              for i in range(1, 19)]
        assert all(e["claim"] for e in entries)


class TestShow:
    def test_show_metadata(self, capsys):
        assert main(["show", "t05"]) == 0
        out = capsys.readouterr().out
        assert "t05" in out
        assert "claim:" in out
        assert "cells quick" in out
        assert "default seed: 5" in out

    def test_show_unknown_id(self, capsys):
        assert main(["show", "t99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_show_case_insensitive(self, capsys):
        assert main(["show", "T05"]) == 0


class TestParser:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "t99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_legacy_unknown_experiment_rejected(self, capsys):
        # The pre-registry form `repro t07` is gone: a bare id is not
        # a subcommand.
        assert main(["t07"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "t07" in err
        for command in ("run", "list", "show", "serve", "cache", "lint"):
            assert command in err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_run_without_ids_is_usage_error(self, capsys):
        assert main(["run"]) == 2

    def test_parser_accepts_full_flag(self):
        args = build_parser().parse_args(["run", "t01", "--full"])
        assert args.full is True
        assert args.ids == ["t01"]

    def test_parser_accepts_quick_flag(self):
        args = build_parser().parse_args(["run", "t01", "--quick"])
        assert args.full is False

    def test_parser_accepts_processes_flag(self):
        args = build_parser().parse_args(
            ["run", "t09", "--processes", "4"])
        assert args.processes == 4

    def test_parser_accepts_seed_flag(self):
        args = build_parser().parse_args(["run", "t05", "--seed", "99"])
        assert args.seed == 99


class TestExecution:
    def test_runs_single_experiment(self, capsys):
        assert main(["run", "t08"]) == 0
        out = capsys.readouterr().out
        assert "T8" in out
        assert "finished in" in out

    def test_case_insensitive_names(self, capsys):
        assert main(["run", "T08"]) == 0
        assert "T8" in capsys.readouterr().out

    def test_json_format_is_pure_stdout(self, capsys):
        assert main(["run", "t08", "--format", "json"]) == 0
        captured = capsys.readouterr()
        tables = json.loads(captured.out)
        assert len(tables) == 1
        assert tables[0]["title"].startswith("T8")
        assert tables[0]["rows"]
        assert "finished in" in captured.err

    def test_json_format_is_strict_with_nan_rows(self, capsys):
        # T3's GCS row contains NaN; strict parsers must still accept
        # the output (non-finite floats become string spellings).
        assert main(["run", "t03", "--format", "json"]) == 0
        tables = json.loads(capsys.readouterr().out,
                            parse_constant=lambda token: pytest.fail(
                                f"bare {token} token in JSON output"))
        gcs_rows = [row for row in tables[0]["rows"]
                    if row[0] == "GCS (no FT)"]
        assert gcs_rows and gcs_rows[0][2] == "NaN"

    def test_csv_format(self, capsys):
        assert main(["run", "t08", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("graph,f,k,")

    def test_csv_multi_table_has_no_blank_records(self, capsys):
        import csv as csv_module
        import io

        assert main(["run", "t08", "t08", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = list(csv_module.reader(io.StringIO(out)))
        assert all(rows)  # no empty records between tables
        assert sum(1 for row in rows if row[0] == "graph") == 2

    def test_seed_flag_changes_output(self, capsys, quick_tables):
        assert main(["run", "t05", "--seed", "99",
                     "--format", "csv"]) == 0
        reseeded = capsys.readouterr().out.splitlines()
        # The default-seed run is the session's quick table, whose
        # to_csv() is what the CLI prints for it.
        default = quick_tables["t05"].to_csv().splitlines()
        assert reseeded[0] == default[0]  # the same columns
        assert reseeded != default

    def test_processes_flag_accepted_everywhere(self, capsys):
        # t08 is a non-simulation experiment; --processes still works.
        assert main(["run", "t08", "--processes", "2"]) == 0


class TestSave:
    def test_save_json(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["run", "t08", "--save", str(target)]) == 0
        assert f"[saved 1 table(s) to {target}]" \
            in capsys.readouterr().out
        tables = json.loads(target.read_text())
        assert len(tables) == 1
        assert tables[0]["title"].startswith("T8")
        assert tables[0]["rows"]

    def test_save_csv_multi_table(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert main(["run", "t08", "t08", "--save", str(target)]) == 0
        text = target.read_text()
        assert sum(1 for line in text.splitlines()
                   if line.startswith("graph,")) == 2
        assert "" not in text.splitlines()  # no blank records

    def test_save_matches_stdout_json(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["run", "t08", "--format", "json",
                     "--save", str(target)]) == 0
        stdout_tables = json.loads(capsys.readouterr().out)
        assert json.loads(target.read_text()) == stdout_tables

    def test_unknown_extension_fails_before_running(self, capsys,
                                                    tmp_path):
        target = tmp_path / "out.txt"
        assert main(["run", "t08", "--save", str(target)]) == 2
        captured = capsys.readouterr()
        assert "--save needs a .json or .csv extension" in captured.err
        assert "finished in" not in captured.out  # nothing ran
        assert not target.exists()


class TestCacheCli:
    def test_stats_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        assert str(tmp_path / "cache") in out

    def test_clear_reports_removed(self, capsys, tmp_path,
                                   monkeypatch):
        from repro.core.params import Parameters
        from repro.harness.scenario import Scenario
        from repro.harness.sweep import run_cell
        from repro.service import ResultStore

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        spec = (Scenario.line(3).params(params).rounds(2).seed(1)
                .build())
        ResultStore(cache).put(spec, run_cell(spec))
        assert main(["cache", "stats"]) == 0
        assert "entries:    1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_cache_dir_flag_overrides_env(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert main(["cache", "stats", "--cache-dir",
                     str(explicit)]) == 0
        assert str(explicit) in capsys.readouterr().out
