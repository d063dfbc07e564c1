"""Incremental result cache for the whole-program source lint.

The interprocedural bands make ``lint-source`` a whole-program
analysis; without caching every invocation would reparse and re-check
all ~100 modules.  This cache stores, per module, everything the warm
path needs so an unchanged module is never parsed again:

* the **module summary** (:func:`repro.verify.callgraph.summarize_module`)
  — plain JSON, enough to rebuild the project symbol table, call graph
  and interprocedural facts with no AST;
* its **source-scope diagnostics** (RV4xx), already pragma-filtered;
* its **project-scope diagnostics** (RV6xx+) together with the
  ``facts digest`` they were computed under — the content hash of the
  slice of project facts this module's findings depend on (callee
  allocations and effects, task-root reachability).

Invalidation is therefore two-level and dependency-aware: the entry key
hashes the module's own text (plus lint config and schema versions), so
an edited module misses outright; and when a *callee* changes, the
edited module's new summary shifts its callers' facts digests, so only
the callers whose relevant facts actually moved are re-checked — the
rest reuse their cached project diagnostics.

Entries reuse the hardened integrity envelope of
:mod:`repro.characterize.cache` — ``{"schema", "sha256", "payload"}``
with quarantine-on-corruption and warn-once on unwritable directories —
so a truncated write or bit-flip is detected, never deserialised.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Set

from ..exec.atomicio import atomic_write_text

#: Bump when summary or diagnostic serialisation changes shape.
#: v2: summary schema 2 (shape returns, nonloop allocs) + RV8xx band.
#: v3: summary schema 3 (effect signatures, global reads) + RV9xx band.
#: v4: spawn_tgt atoms are Process-only (Thread targets stay local).
#: v5: summary schema 4 (no shape returns) and no RV8xx band.
#: v6: summary schema 5 (no units facts, package-relative imports fixed).
CACHE_SCHEMA_VERSION = 6

CORRUPT_SUBDIR = "corrupt"

_UNWRITABLE: Set[str] = set()


def default_lint_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` (or ``~/.cache/repro-nvsram``) + ``lint/``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-nvsram"
    return base / "lint"


def entry_key(text: str, config_digest: str) -> str:
    """Cache key for one module: its text, the policy, the schemas."""
    blob = hashlib.sha256()
    blob.update(text.encode())
    blob.update(b"\0")
    blob.update(config_digest.encode())
    blob.update(f"\0schema={CACHE_SCHEMA_VERSION}".encode())
    return blob.hexdigest()[:24]


def _payload_checksum(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _quarantine(path: Path, reason: str) -> None:
    target = path.parent / CORRUPT_SUBDIR / path.name
    moved = ""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
        moved = f"; moved to {target}"
    except OSError:
        pass    # read-only cache: leave it in place, still warn
    warnings.warn(
        f"discarding lint cache entry {path.name}: {reason}{moved} "
        "(the module will be re-linted)",
        RuntimeWarning,
        stacklevel=3,
    )


def load(cache_dir: Optional[Path], key: str) -> Optional[Dict[str, Any]]:
    """Fetch one module's cached lint entry, or None.

    The payload is ``{"summary": ..., "source_diags": [...],
    "project": {"facts_digest": ..., "diags": [...]} | None}``.
    """
    if cache_dir is None:
        return None
    path = Path(cache_dir) / f"{key}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as err:
        warnings.warn(f"cannot read lint cache entry {path}: {err}",
                      RuntimeWarning, stacklevel=2)
        return None
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as err:
        _quarantine(path, f"unparseable JSON ({err})")
        return None
    if not isinstance(envelope, dict) or "payload" not in envelope:
        _quarantine(path, "not an integrity envelope")
        return None
    if envelope.get("schema") != CACHE_SCHEMA_VERSION:
        _quarantine(path, f"schema {envelope.get('schema')!r} != "
                          f"{CACHE_SCHEMA_VERSION}")
        return None
    payload = envelope["payload"]
    expected = envelope.get("sha256")
    if not isinstance(payload, dict) or not isinstance(expected, str):
        _quarantine(path, "malformed envelope fields")
        return None
    actual = _payload_checksum(payload)
    if actual != expected:
        _quarantine(path, f"checksum mismatch (stored {expected[:12]}..., "
                          f"computed {actual[:12]}...)")
        return None
    return payload


def _warn_unwritable(directory: Path, err: OSError) -> None:
    marker = str(directory)
    if marker in _UNWRITABLE:
        return
    _UNWRITABLE.add(marker)
    warnings.warn(
        f"lint cache directory {directory} is not writable ({err}); "
        "continuing with caching disabled for this directory",
        RuntimeWarning,
        stacklevel=3,
    )


def store(cache_dir: Optional[Path], key: str,
          payload: Dict[str, Any]) -> None:
    """Persist one module's lint entry (atomic, degrade-don't-raise)."""
    if cache_dir is None:
        return
    directory = Path(cache_dir)
    if str(directory) in _UNWRITABLE:
        return
    envelope = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION,
         "sha256": _payload_checksum(payload),
         "payload": payload},
        sort_keys=True,
    )
    path = directory / f"{key}.json"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, envelope)
    except OSError as err:
        _warn_unwritable(directory, err)
