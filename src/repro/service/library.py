"""The scenario library: named, file-backed job definitions.

A library is a directory of ``.yaml``/``.yml``/``.json`` files, one
scenario per file, addressed by filename stem (``t01_quick.yaml`` →
``t01_quick``).  ``GET /scenarios`` lists them; ``POST /jobs`` with
``{"scenario": "<name>"}`` submits one without the client having to
know any spec detail — the curated-workload entry point for the
serving layer.

Two file shapes:

**Experiment reference** — point at a registry experiment::

    title: T1 quick, published seed
    experiment: t01
    quick: true        # optional (default true)
    seed: 3            # optional (default: the registered seed)

**Ad-hoc grid** — explicit cells, the
:meth:`~repro.harness.sweep.ScenarioSpec.from_dict` plain-data form::

    title: FTGCS line, three diameters
    base_seed: 7       # optional (default 0)
    cells:
      - graph: line
        graph_args: [3]
        rounds: 12
        params: {preset: practical, rho: 1.0e-4, d: 1.0, u: 0.1, f: 1}
        key: [D, 2]

``params`` in a cell may be the full encoded ``Parameters`` dataclass
(as produced by ``to_dict``) *or* the human-writable preset shorthand
shown above: ``preset`` names a :class:`~repro.core.params.Parameters`
classmethod constructor (``practical``, ``paper``, ``custom``) and the
remaining keys are its arguments.  Loading validates every cell
eagerly — a typo fails at ``GET /scenarios``/submit time with a
:class:`~repro.errors.ConfigError` naming the file, never inside a
worker.

YAML needs PyYAML; without it, ``.json`` files still load and ``.yaml``
files raise a clear error naming the missing dependency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.params import Parameters
from repro.errors import ConfigError
from repro.harness.sweep import ScenarioSpec
from repro.service.jobs import check_job_fields

try:
    import yaml
except ImportError:  # pragma: no cover - PyYAML is in the image
    yaml = None

#: Recognized library file suffixes, in listing order.
SUFFIXES = (".yaml", ".yml", ".json")

#: ``params: {preset: ...}`` shorthand → Parameters constructor.
PARAM_PRESETS = ("practical", "paper", "custom")


@dataclass(frozen=True)
class LibraryScenario:
    """One loaded library entry, ready for the job manager."""

    name: str
    title: str
    path: str
    #: Registry experiment reference (exclusive with ``specs``).
    experiment: str | None = None
    quick: bool = True
    seed: int | None = None
    #: Ad-hoc grid (exclusive with ``experiment``).
    specs: tuple[ScenarioSpec, ...] = ()
    base_seed: int = 0

    def describe(self) -> dict:
        """The ``GET /scenarios`` listing entry."""
        entry = {"name": self.name, "title": self.title}
        if self.experiment is not None:
            entry["experiment"] = self.experiment
            entry["quick"] = self.quick
            if self.seed is not None:
                entry["seed"] = self.seed
        else:
            entry["cells"] = len(self.specs)
            entry["base_seed"] = self.base_seed
        return entry


def _resolve_params_shorthand(cell: dict, path: Path) -> dict:
    """Expand ``params: {preset: ..., ...}`` into encoded Parameters."""
    params = cell.get("params")
    if not (isinstance(params, dict) and "preset" in params):
        return cell
    kwargs = dict(params)
    preset = kwargs.pop("preset")
    if preset not in PARAM_PRESETS:
        raise ConfigError(
            f"{path.name}: unknown params preset {preset!r}; known: "
            f"{list(PARAM_PRESETS)}")
    try:
        built = getattr(Parameters, preset)(**kwargs)
    except TypeError as error:
        raise ConfigError(
            f"{path.name}: bad params arguments for preset "
            f"{preset!r}: {error}") from None
    cell = dict(cell)
    # Route through the spec codec so from_dict sees its native form.
    cell["params"] = ScenarioSpec(params=built).to_dict()["params"]
    return cell


def _load_file(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"{path.name}: invalid JSON: {error}")
    else:
        if yaml is None:
            raise ConfigError(
                f"{path.name}: loading YAML scenarios needs PyYAML "
                f"(install pyyaml, or use .json files)")
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ConfigError(f"{path.name}: invalid YAML: {error}")
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path.name}: a scenario file must hold one mapping, "
            f"got {type(data).__name__}")
    return data


def _check_fields(path: Path, **fields) -> None:
    try:
        check_job_fields(**fields)
    except ConfigError as error:
        raise ConfigError(f"{path.name}: {error}") from None


def _parse(name: str, path: Path, data: dict) -> LibraryScenario:
    title = data.get("title", name)
    has_experiment = "experiment" in data
    has_cells = "cells" in data
    if has_experiment == has_cells:
        raise ConfigError(
            f"{path.name}: give exactly one of 'experiment' or "
            f"'cells'")
    if has_experiment:
        extra = sorted(set(data) - {"title", "experiment", "quick",
                                    "seed"})
        if extra:
            raise ConfigError(
                f"{path.name}: unknown key(s) {extra} for an "
                f"experiment scenario")
        quick = data.get("quick", True)
        seed = data.get("seed")
        _check_fields(path, quick=quick, seed=seed)
        return LibraryScenario(
            name=name, title=str(title), path=str(path),
            experiment=str(data["experiment"]), quick=quick, seed=seed)
    extra = sorted(set(data) - {"title", "cells", "base_seed"})
    if extra:
        raise ConfigError(
            f"{path.name}: unknown key(s) {extra} for a grid scenario")
    base_seed = data.get("base_seed", 0)
    _check_fields(path, base_seed=base_seed)
    cells = data["cells"]
    if not isinstance(cells, list) or not cells:
        raise ConfigError(
            f"{path.name}: 'cells' must be a non-empty list")
    specs = []
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ConfigError(
                f"{path.name}: cell {index} must be a mapping")
        try:
            specs.append(ScenarioSpec.from_dict(
                _resolve_params_shorthand(cell, path)))
        except ConfigError as error:
            raise ConfigError(
                f"{path.name}: cell {index}: {error}") from None
    return LibraryScenario(
        name=name, title=str(title), path=str(path),
        specs=tuple(specs), base_seed=base_seed)


class ScenarioLibrary:
    """Name-addressable scenarios from one directory.

    Files are re-read on every access, so editing the directory while
    the server runs is immediately visible — the library is small and
    the parse cost is trivial next to any simulation.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def _files(self) -> dict[str, Path]:
        if not self.root.is_dir():
            return {}
        files: dict[str, Path] = {}
        for suffix in SUFFIXES:
            for path in sorted(self.root.glob(f"*{suffix}")):
                files.setdefault(path.stem, path)
        return files

    def names(self) -> list[str]:
        return sorted(self._files())

    def load(self, name: str) -> LibraryScenario:
        files = self._files()
        path = files.get(name)
        if path is None:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {sorted(files)}")
        return _parse(name, path, _load_file(path))

    def describe_all(self) -> list[dict]:
        """Every scenario's listing entry (used by ``GET /scenarios``);
        a broken file becomes an ``error`` entry instead of sinking
        the whole listing."""
        entries = []
        for name in self.names():
            try:
                entries.append(self.load(name).describe())
            except ConfigError as error:
                entries.append({"name": name, "error": str(error)})
        return entries


__all__ = ["LibraryScenario", "PARAM_PRESETS", "ScenarioLibrary"]
