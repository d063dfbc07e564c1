"""One integrity envelope for the on-disk result caches.

Two caches keep one JSON file per entry, ``<dir>/<key>.json``: the
characterisation cache (:mod:`repro.characterize.cache`, under
``$REPRO_CACHE_DIR``) and the incremental source-lint cache
(:mod:`repro.verify.source`, under ``$REPRO_CACHE_DIR/lint``).  Each file
is an envelope ``{"schema", "sha256", "payload"}``: the store's schema
number, the sha256 of the canonical payload (``json.dumps(payload,
sort_keys=True)``) and the payload dict itself.

A :func:`load` that finds unparseable JSON, a file that is not an
envelope, a stale schema or a checksum mismatch moves the file to
``<dir>/corrupt/`` and warns with its path: corruption is *detected* and
recomputed, never deserialised.  A :func:`store` writes through
:func:`repro.exec.atomicio.atomic_write_text`; an unwritable directory
(read-only mount, permission drift mid-sweep) warns once and stays
cache-off for the rest of the process, so losing the cache never loses
the run.

Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

from .atomicio import atomic_write_text

#: Subdirectory quarantining entries that failed an integrity check.
CORRUPT_SUBDIR = "corrupt"

#: :func:`load` outcomes.
HIT, MISS, QUARANTINE = "hit", "miss", "quarantine"
#: :func:`store` outcomes.
STORED, STORE_FAILED = "store", "store_failure"

#: Directories that already warned about being unwritable; caching stays
#: off for them for the rest of the process (warn once, not per entry).
_UNWRITABLE: Set[str] = set()


def cache_root() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro-nvsram``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "repro-nvsram"


def checksum(payload: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def entry_path(cache_dir: Path, key: str) -> Path:
    """The file holding the entry for ``key``."""
    return Path(cache_dir) / f"{key}.json"


def entry_age_s(cache_dir: Optional[Path], key: str) -> Optional[float]:
    """Age of the entry for ``key`` in seconds, from its mtime; None if
    there is no such entry.

    The wall-clock read is deliberate: the age feeds counters and
    staleness stamps, never a payload.
    """
    if cache_dir is None:
        return None
    try:
        mtime = entry_path(cache_dir, key).stat().st_mtime
    except OSError:
        return None
    return max(0.0, time.time() - mtime)


def quarantine(path: Path, reason: str) -> None:
    """Move a bad entry to ``<dir>/corrupt/`` and warn with its path."""
    target = path.parent / CORRUPT_SUBDIR / path.name
    moved = ""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
        moved = f"; moved to {target}"
    except OSError:
        pass    # read-only cache / concurrent quarantine: still warn
    warnings.warn(f"discarding cache entry {path}: {reason}{moved} "
                  "(it will be recomputed)", RuntimeWarning, stacklevel=3)


def load(cache_dir: Optional[Path], key: str,
         schema: int) -> Tuple[Optional[Dict[str, Any]], str]:
    """Read the entry for ``key``: ``(payload, outcome)``.

    ``outcome`` is :data:`HIT` with the payload, :data:`MISS` when there
    is no readable entry (or no ``cache_dir``), or :data:`QUARANTINE`
    when the entry failed an integrity check and was moved aside.
    """
    if cache_dir is None:
        return None, MISS
    path = entry_path(cache_dir, key)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None, MISS
    except OSError as err:
        warnings.warn(f"cannot read cache entry {path}: {err}",
                      RuntimeWarning, stacklevel=2)
        return None, MISS
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as err:
        reason = f"unparseable JSON ({err})"
    else:
        reason = _integrity_problem(envelope, schema)
    if reason is not None:
        quarantine(path, reason)
        return None, QUARANTINE
    return envelope["payload"], HIT


def _integrity_problem(envelope: Any, schema: int) -> Optional[str]:
    """Why ``envelope`` is not a valid ``schema`` entry, or None."""
    if not isinstance(envelope, dict) or "payload" not in envelope:
        return "not an integrity envelope"
    if envelope.get("schema") != schema:
        return f"schema {envelope.get('schema')!r} != {schema}"
    payload, expected = envelope["payload"], envelope.get("sha256")
    if not isinstance(payload, dict) or not isinstance(expected, str):
        return "malformed envelope fields"
    actual = checksum(payload)
    if actual != expected:
        return (f"checksum mismatch (stored {expected[:12]}..., "
                f"computed {actual[:12]}...)")
    return None


def _warn_unwritable(directory: Path, err: OSError) -> None:
    marker = str(directory)
    if marker in _UNWRITABLE:
        return
    # The warn-once set only gates *warning noise*, never results: a
    # task rerun without it produces identical payloads, just louder.
    _UNWRITABLE.add(marker)
    warnings.warn(
        f"cache directory {directory} is not writable ({err}); "
        "continuing with caching disabled for this directory",
        RuntimeWarning,
        stacklevel=3,
    )


def store(cache_dir: Optional[Path], key: str, schema: int,
          payload: Dict[str, Any]) -> Optional[str]:
    """Write ``payload`` in its envelope to ``<cache_dir>/<key>.json``.

    Safe under concurrent writers of one key: each stages into its own
    ``mkstemp`` file before the atomic rename.  Returns :data:`STORED`,
    :data:`STORE_FAILED` (the write raised ``OSError``: warned once, and
    the directory is cache-off from now on), or None when nothing was
    attempted (no ``cache_dir``, or a directory already known to be
    unwritable).
    """
    if cache_dir is None:
        return None
    directory = Path(cache_dir)
    if str(directory) in _UNWRITABLE:
        return None
    text = json.dumps({"schema": schema, "sha256": checksum(payload),
                       "payload": payload}, sort_keys=True)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(entry_path(directory, key), text)
    except OSError as err:
        _warn_unwritable(directory, err)
        return STORE_FAILED
    return STORED
