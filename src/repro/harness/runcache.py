"""On-disk content-addressed cache of simulation run results.

Every run the harness executes is fully determined by its
:class:`~repro.harness.parallel.RunSpec` -- scenario builder and
arguments, every :class:`~repro.workloads.scenarios.ScenarioConfig`
knob (seed, scale, engine, timers, cost-model parameters), and the
measurement window.  The executor hashes the spec's canonical JSON and
stores the run's result payload here, so regenerating a figure or
re-probing a load point that has not changed never re-simulates.

Layout::

    .repro-cache/
      v<SCHEMA>/              # one directory per cache schema version
        ab/                   # first two hex digits of the key
          ab<...>.json        # {"schema", "key", "kind", "spec",
                              #  "result", "created", "repro_version"}

Invalidation rules:

- changing *any* knob that participates in the spec hash changes the
  key, so the stale entry is simply never read again;
- payload-format changes bump :data:`CACHE_SCHEMA_VERSION`, which moves
  the whole cache to a fresh ``v<N>`` directory (``repro cache clear
  --stale`` purges the abandoned ones);
- corrupt or truncated entries read as misses and are overwritten.

Writes go through a temp file + :func:`os.replace` so a crashed or
concurrent writer can never leave a half-written entry behind.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional


def _repro_version() -> str:
    # Imported lazily: repro/__init__ imports the harness package, so a
    # top-level ``from repro import __version__`` would be circular.
    import repro

    return getattr(repro, "__version__", "unknown")

#: Bump when the result payload format (or run semantics) change in a
#: way that makes old cached results unusable.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory (relative to the working directory unless
#: overridden by the ``REPRO_CACHE_DIR`` environment variable).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class RunCache:
    """Content-addressed store mapping spec keys to result payloads."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root if root is not None else default_cache_dir())

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Result payload for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
            or "result" not in entry
        ):
            return None
        return entry["result"]

    def put(self, key: str, kind: str, spec: object, result: object) -> None:
        """Persist a result payload; atomic against readers and crashes."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "spec": spec,
            "result": result,
            "created": time.time(),
            "repro_version": _repro_version(),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:12]}.", suffix=".tmp", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Inspection / maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------
    def _entries(self, version_dir: Path):
        if not version_dir.is_dir():
            return
        for shard in sorted(version_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path

    def stats(self) -> Dict[str, object]:
        """Per-version entry counts and sizes (``repro cache stats``)."""
        versions: Dict[str, Dict[str, object]] = {}
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if not child.is_dir() or not child.name.startswith("v"):
                    continue
                entries = 0
                size = 0
                for path in self._entries(child):
                    entries += 1
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
                versions[child.name] = {
                    "entries": entries,
                    "bytes": size,
                    "current": child.name == f"v{CACHE_SCHEMA_VERSION}",
                }
                total_entries += entries
                total_bytes += size
        return {
            "path": str(self.root),
            "schema_version": CACHE_SCHEMA_VERSION,
            "entries": total_entries,
            "bytes": total_bytes,
            "versions": versions,
        }

    def clear(self, stale_only: bool = False) -> Dict[str, int]:
        """Delete cached runs; ``stale_only`` keeps the current schema."""
        removed_entries = 0
        removed_bytes = 0
        if not self.root.is_dir():
            return {"removed_entries": 0, "removed_bytes": 0}
        current = f"v{CACHE_SCHEMA_VERSION}"
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or not child.name.startswith("v"):
                continue
            if stale_only and child.name == current:
                continue
            for path in self._entries(child):
                removed_entries += 1
                try:
                    removed_bytes += path.stat().st_size
                except OSError:
                    pass
            shutil.rmtree(child, ignore_errors=True)
        return {"removed_entries": removed_entries, "removed_bytes": removed_bytes}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RunCache {self.root} v{CACHE_SCHEMA_VERSION}>"
