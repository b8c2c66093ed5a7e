"""Command-line entry point: the experiment registry, on the shell.

Usage::

    python -m repro run t07                    # one experiment, quick
    python -m repro run t01 t04 --full         # selected, full size
    python -m repro run --all --processes 4    # everything, in a pool
    python -m repro run t05 --seed 99          # override the seed
    python -m repro run t08 --format json      # machine-readable output
    python -m repro run t01 --save out.json    # write the table to a file
    python -m repro list                       # what's available
    python -m repro show t09                   # metadata + grid sizes
    python -m repro serve --port 8765          # the HTTP simulation service
    python -m repro cache stats                # result-cache maintenance
    python -m repro lint                       # determinism & contract lint

Experiment ids are the T-identifiers of DESIGN.md section 3
(``t01`` … ``t18``); every one of them executes through
:func:`~repro.harness.registry.run_experiment` and the parallel sweep
engine, so ``--processes`` applies everywhere.

Output formats: ``table`` (aligned text, the default), ``json`` (one
JSON array of table objects), ``csv`` (header + raw rows per table).
Machine formats keep stdout pure — progress lines go to stderr.
``--save PATH`` additionally writes the finished tables to a file,
picking ``Table.to_json`` or ``Table.to_csv`` by extension (``.json``
/ ``.csv``; anything else errors out before any experiment runs).

``serve`` starts the HTTP simulation service (async job manager +
content-addressed result cache over the sweep engine; see
:mod:`repro.service.app`); ``cache stats`` / ``cache clear`` maintain
the on-disk result store it serves from.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import ConfigError
from repro.harness.registry import REGISTRY, run_experiment

#: Extensions `run --save` understands, mapped to the Table writer.
SAVE_FORMATS = (".json", ".csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Fault Tolerant "
                    "Gradient Clock Synchronization' (PODC 2019).")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser(
        "run", help="run experiments through the registry")
    run_p.add_argument(
        "ids", nargs="*", metavar="tNN",
        help="experiment ids (t01..t18); see 'list'")
    run_p.add_argument(
        "--all", action="store_true",
        help="run every experiment in order")
    size = run_p.add_mutually_exclusive_group()
    size.add_argument(
        "--quick", dest="full", action="store_false",
        help="CI-sized sweeps (the default)")
    size.add_argument(
        "--full", dest="full", action="store_true",
        help="full-size sweeps (EXPERIMENTS.md sizes)")
    run_p.set_defaults(full=False)
    run_p.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="worker processes for the sweep engine "
             "(default: REPRO_SWEEP_PROCESSES or serial)")
    run_p.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="override the experiment's registered seed")
    run_p.add_argument(
        "--engine", choices=("event", "vectorized"), default=None,
        help="override the execution backend of every protocol cell "
             "(vectorized: the numpy round engine; the protocols must "
             "support it)")
    run_p.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)")
    run_p.add_argument(
        "--save", metavar="PATH", default=None,
        help="also write the finished table(s) to PATH; the "
             "extension picks the writer (.json: a JSON array of "
             "table objects, .csv: concatenated CSV)")

    list_p = sub.add_parser(
        "list", help="list registered experiments")
    list_p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)")

    show_p = sub.add_parser(
        "show", help="metadata and grid sizes of one experiment")
    show_p.add_argument("id", metavar="tNN", help="experiment id")

    serve_p = sub.add_parser(
        "serve",
        help="HTTP simulation service: async jobs + content-addressed "
             "result cache over the sweep engine")
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=8765, metavar="N",
        help="listen port (default: 8765)")
    serve_p.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="worker processes of the warm pool that runs cache "
             "misses (default: REPRO_SWEEP_PROCESSES or serial)")
    serve_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent job-consumer threads (default: 1)")
    serve_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory "
             "(default: REPRO_CACHE_DIR or ~/.cache/repro/results)")
    serve_p.add_argument(
        "--scenarios", default=None, metavar="DIR",
        help="scenario library directory served at GET /scenarios")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    cache_p.add_argument(
        "action", choices=("stats", "clear"),
        help="'stats' prints entry count and bytes; 'clear' removes "
             "every entry")
    cache_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory "
             "(default: REPRO_CACHE_DIR or ~/.cache/repro/results)")

    lint_p = sub.add_parser(
        "lint",
        help="determinism & contract static analysis over src/ "
             "(exit 1 on findings)")
    lint_p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: all of src/)")
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)")
    lint_p.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the JSON report to PATH (written even when "
             "findings fail the run, so CI can upload it)")
    lint_p.add_argument(
        "--no-contracts", dest="contracts", action="store_false",
        help="skip the import-and-introspect contract pass (AST "
             "rules only; useful on partial checkouts)")

    return parser


def list_experiments() -> str:
    """The ``list`` subcommand's text form."""
    lines = ["available experiments:"]
    for experiment in REGISTRY:
        lines.append(f"  {experiment.id}  {experiment.title}")
    return "\n".join(lines)


def _cmd_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        import json

        entries = [{"id": e.id, "title": e.title, "claim": e.claim,
                    "columns": list(e.columns),
                    "default_seed": e.default_seed}
                   for e in REGISTRY]
        print(json.dumps(entries, indent=2))
        return 0
    print(list_experiments())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    id = args.id.lower()
    if id not in REGISTRY:
        print(f"error: unknown experiment {args.id!r}", file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return 2
    experiment = REGISTRY.get(id)
    quick_cells = len(experiment.plan(quick=True,
                                      seed=experiment.default_seed).specs)
    full_cells = len(experiment.plan(quick=False,
                                     seed=experiment.default_seed).specs)
    print(f"{experiment.id}  {experiment.title}")
    print(f"  claim: {experiment.claim}")
    print(f"  columns: {', '.join(experiment.columns)}")
    print(f"  grid: {quick_cells} cells quick, {full_cells} cells full")
    print(f"  default seed: {experiment.default_seed}")
    if experiment.tags:
        print(f"  tags: {', '.join(experiment.tags)}")
    return 0


def _save_tables(tables, path: str) -> None:
    """Write finished tables to ``path`` via the ``Table`` writers.

    ``.json`` holds a JSON array of table objects (matching the
    ``--format json`` stdout shape); ``.csv`` concatenates each
    table's ``to_csv`` form.  The extension is validated *before* any
    experiment runs (see ``_cmd_run``).
    """
    import json as json_
    from pathlib import Path

    target = Path(path)
    if target.suffix == ".json":
        text = json_.dumps([table.to_dict(json_safe=True)
                            for table in tables], indent=2,
                           allow_nan=False) + "\n"
    else:
        text = "".join(table.to_csv() for table in tables)
    target.write_text(text, encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    ids = [id.lower() for id in args.ids]
    if args.all:
        ids = REGISTRY.ids()
    if not ids:
        print("error: give experiment ids, --all, or use 'list'",
              file=sys.stderr)
        return 2
    unknown = [id for id in ids if id not in REGISTRY]
    if unknown:
        print(f"error: unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return 2
    if args.save is not None:
        from pathlib import Path

        suffix = Path(args.save).suffix.lower()
        if suffix not in SAVE_FORMATS:
            # Fail before running anything: a minutes-long sweep must
            # not end in an unwritable result.
            print(f"error: --save needs a {' or '.join(SAVE_FORMATS)} "
                  f"extension, got {args.save!r}", file=sys.stderr)
            return 2

    machine = args.format in ("json", "csv")
    status = sys.stderr if machine else sys.stdout
    tables = []
    for id in ids:
        # repro: allow[wall-clock] -- elapsed-time status line on
        # stderr; never part of the table bytes.
        started = time.perf_counter()
        try:
            table = run_experiment(id, quick=not args.full,
                                   processes=args.processes,
                                   seed=args.seed, engine=args.engine)
        except ConfigError as error:
            # Eager build-time rejections (e.g. --engine vectorized on
            # a plan with event-only cells) are user errors, not bugs.
            print(f"error: {error}", file=sys.stderr)
            return 2
        # repro: allow[wall-clock] -- same status-line measurement.
        elapsed = time.perf_counter() - started
        tables.append(table)
        if not machine:
            print(table.format())
        print(f"[{id} finished in {elapsed:.1f}s]", file=status)
        if not machine:
            print()
    if args.format == "json":
        import json

        print(json.dumps([table.to_dict(json_safe=True)
                          for table in tables], allow_nan=False))
    elif args.format == "csv":
        # to_csv() is newline-terminated; plain concatenation keeps
        # the stream free of blank records for csv readers.
        print("".join(table.to_csv() for table in tables), end="")
    if args.save is not None:
        _save_tables(tables, args.save)
        print(f"[saved {len(tables)} table(s) to {args.save}]",
              file=status)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover
    from repro.service.app import serve

    serve(host=args.host, port=args.port, cache_dir=args.cache_dir,
          scenario_dir=args.scenarios, processes=args.processes,
          workers=args.workers)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    stats = store.stats()
    print(f"cache root: {stats['root']}")
    print(f"entries:    {stats['entries']}")
    print(f"bytes:      {stats['bytes']}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import repo_root, run_lint
    from repro.lint.report import format_json, format_text

    root = repo_root()
    paths = args.paths or None
    report = run_lint(root=root, paths=paths, contracts=args.contracts)
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report))
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(format_json(report) + "\n",
                                     encoding="utf-8")
        print(f"[lint report written to {args.output}]",
              file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:  # pragma: no cover - shell entry
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse error or --help
        code = exit_.code
        return code if isinstance(code, int) else 2

    if args.command == "list":
        return _cmd_list(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":  # pragma: no cover - blocking server
        return _cmd_serve(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.print_usage()
    print("error: give a subcommand (run, list, show, serve, cache, "
          "lint)", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
