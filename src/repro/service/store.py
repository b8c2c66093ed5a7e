"""Content-addressed, on-disk cache of executed sweep cells.

Every cell of every sweep is a pure function of its (seed-resolved)
:class:`~repro.harness.sweep.ScenarioSpec` — the whole repository is
built around that determinism.  The :class:`ResultStore` turns it into
a serving-layer asset: the canonical BLAKE2b hash of the spec
(:func:`~repro.harness.sweep.spec_hash`) addresses a JSON file holding
the encoded :class:`~repro.harness.sweep.SweepCellResult`, so
resubmitting an identical cell — same grid, same seed, same params —
is a disk read that never touches the simulation kernel, and the
decoded result is *bit-identical* to what the kernel would have
produced (see :mod:`repro.harness.serialize`).

Robustness contract: a cache entry is advisory, never authoritative.
Anything wrong with a file — truncated write, corrupted JSON, an
unknown encoding tag from a different code revision, a hash mismatch —
is treated as a **miss**: the cell is recomputed and the entry
overwritten, with one warning logged, never an exception.  An entry
written under another :data:`STORE_FORMAT` (or none) is a miss the
same way, though not counted as corrupt.  Writes are
atomic (temp file + ``os.replace``) so a crashed writer can at worst
leave a stale temp file, not a half-entry under the final name.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path

from repro.harness import serialize
from repro.harness.sweep import ScenarioSpec, SweepCellResult, spec_hash

logger = logging.getLogger(__name__)

#: Environment override for every default cache location (CLI, serve).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk entry schema version; bump on incompatible layout changes
#: (old entries then read as misses and are overwritten on recompute).
#: Format 2 retires every entry written before the vectorized engine
#: rejected loss, first contact and topology schedules, so a lossless
#: result stored under such a spec's hash is never served.
STORE_FORMAT = 2


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/results").expanduser()


class _StaleEntry(Exception):
    """A readable entry written under another :data:`STORE_FORMAT`."""


class ResultStore:
    """Spec-hash → persisted :class:`SweepCellResult`, as JSON files.

    Entries live two directory levels deep (``ab/ab12….json``, sharded
    by hash prefix) under ``root``; the directory is created lazily on
    the first write.  Instances also keep session counters (``hits``,
    ``misses``, ``corrupt``) that the service surfaces in job progress
    and ``GET /cache/stats``.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The entry file for one spec hash."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, spec: ScenarioSpec) -> SweepCellResult | None:
        """The cached result for ``spec``, or ``None`` on a miss.

        ``spec.seed`` must be resolved (``spec_hash`` enforces it).
        Every defect in the entry file, and a stale ``format``, demotes
        it to a miss with a logged warning — the caller recomputes and
        :meth:`put` overwrites the entry.
        """
        key = spec_hash(spec)
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            logger.warning("cache entry %s unreadable (%s); treating "
                           "as a miss", path, error)
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry.get("format") != STORE_FORMAT:
                raise _StaleEntry(entry.get("format"))
            if entry.get("spec_hash") != key:
                raise ValueError(
                    f"entry names spec_hash {entry.get('spec_hash')!r}")
            cell = serialize.decode(entry["cell"])
            if not isinstance(cell, SweepCellResult):
                raise ValueError(
                    f"entry decodes to {type(cell).__name__}")
        except _StaleEntry as stale:
            logger.warning("stale cache entry %s (format %r, current %d); "
                           "treating as a miss, will overwrite on "
                           "recompute", path, stale.args[0], STORE_FORMAT)
            self.misses += 1
            return None
        except Exception as error:  # corrupt entry: miss, never a crash
            logger.warning("corrupt cache entry %s (%s: %s); treating "
                           "as a miss, will overwrite on recompute",
                           path, type(error).__name__, error)
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return cell

    def put(self, spec: ScenarioSpec, cell: SweepCellResult) -> Path:
        """Persist one executed cell under its spec hash (atomic)."""
        key = spec_hash(spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": STORE_FORMAT,
            "spec_hash": key,
            "spec": spec.to_dict(),
            "cell": serialize.encode(cell),
        }
        payload = json.dumps(entry, allow_nan=False)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` mini-CLI)
    # ------------------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def stats(self) -> dict:
        """Entry count and total bytes on disk, plus session counters."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "session": {"hits": self.hits, "misses": self.misses,
                        "corrupt": self.corrupt},
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError as error:  # pragma: no cover - racing clear
                logger.warning("could not remove %s: %s", path, error)
        return removed


__all__ = ["CACHE_DIR_ENV", "ResultStore", "default_cache_dir"]
