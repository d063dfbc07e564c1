"""Crash-injection check of the durable-write protocol.

A write pattern either survives a crash or tears; this harness
demonstrates which, against real process deaths.  ``python -m repro
chaos --crashpoints`` runs each durable-write pattern in a **real
child process** that is killed (``os._exit``) at every instrumented
boundary of the :mod:`repro.exec.atomicio` protocol — ``post-write``,
``pre-fsync``, ``pre-rename``, ``post-rename`` — and then checks the
survivor's view of the file:

* **bare-overwrite** — the *pre-fix* in-place overwrite (``open(path,
  "w")`` over live data).  The kill mid-write must leave a torn or
  truncated file: the hazard, demonstrated.
* **atomic-replace** — the fixed pattern
  (:func:`repro.exec.atomicio.atomic_write_text`).  At every
  crashpoint the reader must see *either* the complete old value or
  the complete new value — never a mixture.

Process death does **not** empty the OS page cache, so the
fsync-ordering hazard (rename durable, data blocks not) cannot be
shown by killing a child.  The two ``*-rename`` scenarios instead use
an explicit *disk model*: data written without ``fsync`` is treated as
lost on power failure (the file's blocks are truncated after the
rename), data written with ``fsync`` as durable.  This emulates the
journalled-metadata/unflushed-data state a machine crash leaves behind
— the standard crash-consistency failure mode — and is labelled
``emulated`` in the report.

Each check is one ``scenario@crashpoint`` record of the
``crashpoints`` :func:`~repro.recovery.forensics.chaos_report`, with
the reader's view as ``actual``.  The harness fails (exit 1) if a
*fixed* pattern loses data **or** a *pre-fix* pattern fails to
demonstrate its hazard — either direction means the protocol and
this harness have drifted apart — or if a child never reaches its
crashpoint (a hung child is recorded as ``timeout``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional

from ..exec import atomicio
from ..recovery.forensics import chaos_report

#: Child exit status at an armed crashpoint — distinguishable from a
#: normal exit (0) and from an import/usage failure (1/2).
CRASH_EXIT = 9

#: Seconds a crash vehicle may run before it counts as hung.
_CHILD_TIMEOUT_S = 60

OLD_PAYLOAD = {"value": "old", "rev": 1}
NEW_PAYLOAD = {"value": "new", "rev": 2}

#: ``python -c`` crash vehicle.  The child loads ``atomicio`` straight
#: from its file (no package import: the vehicle must stay stdlib-light
#: and die only where it is told to), arms the crash hook, and runs one
#: writer.  argv: atomicio_path scenario crashpoint target payload.
_CHILD_SCRIPT = r"""
import importlib.util, os, sys
atomicio_path, scenario, point, target, payload = sys.argv[1:6]
spec = importlib.util.spec_from_file_location("_atomicio", atomicio_path)
atomicio = importlib.util.module_from_spec(spec)
spec.loader.exec_module(atomicio)

def die(at):
    if at == point:
        os._exit(9)

if scenario == "bare-overwrite":
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(payload[: len(payload) // 2])
        fh.flush()
        die("post-write")          # torn: half the new, none of the old
        fh.write(payload[len(payload) // 2:])
elif scenario == "atomic-replace":
    atomicio._CRASH_HOOK = die
    atomicio.atomic_write_text(target, payload)
else:
    sys.exit(2)
sys.exit(0)
"""


def _spawn_child(scenario: str, point: str, target: Path,
                 payload: str) -> Optional[int]:
    """Run one crash vehicle to its armed crashpoint; return its exit
    code, or ``None`` when it hung past ``_CHILD_TIMEOUT_S``."""
    argv = [sys.executable, "-c", _CHILD_SCRIPT, atomicio.__file__,
            scenario, point, str(target), payload]
    try:
        return subprocess.run(argv, capture_output=True,
                              timeout=_CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _classify(target: Path) -> str:
    """Reader-side view: ``old`` / ``new`` / ``missing`` / ``torn``."""
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return "missing"
    except (json.JSONDecodeError, OSError):
        return "torn"
    if payload == OLD_PAYLOAD:
        return "old"
    if payload == NEW_PAYLOAD:
        return "new"
    return "torn"


def _record(scenario: str, point: str, state: str, expected: str, *,
            code: Optional[int] = CRASH_EXIT, emulated: bool = False,
            detail: str = "") -> Dict[str, Any]:
    """One ``scenario@crashpoint`` record; ``code`` is the child's exit
    status (``None`` if it hung), which must be :data:`CRASH_EXIT` (the
    emulated disk model spawns no child and keeps the default)."""
    if code is None:
        state = "timeout"
        detail = f"child still running after {_CHILD_TIMEOUT_S} s"
    return {"name": f"{scenario}@{point}", "expected": expected,
            "actual": state, "ok": code == CRASH_EXIT and state == expected,
            "emulated": emulated, "detail": detail}


def _check_bare_overwrite(scratch: Path) -> Dict[str, Any]:
    """Pre-fix in-place overwrite: the kill must destroy the old value."""
    target = scratch / "bare.json"
    atomicio.atomic_write_text(target, json.dumps(OLD_PAYLOAD))
    code = _spawn_child("bare-overwrite", "post-write", target,
                        json.dumps(NEW_PAYLOAD))
    return _record(
        "bare-overwrite", "post-write", _classify(target), "torn",
        code=code,
        detail="open('w') truncates before writing: the old value is "
               "gone the moment the crash lands")


def _check_atomic_replace(scratch: Path, point: str) -> Dict[str, Any]:
    """Fixed pattern: old-or-new at one protocol boundary."""
    target = scratch / f"atomic-{point}.json"
    atomicio.atomic_write_text(target, json.dumps(OLD_PAYLOAD))
    code = _spawn_child("atomic-replace", point, target,
                        json.dumps(NEW_PAYLOAD))
    expected = "new" if point == "post-rename" else "old"
    return _record("atomic-replace", point, _classify(target), expected,
                   code=code)


def _disk_model_rename(scratch: Path, *, fsync: bool) -> Dict[str, Any]:
    """Fsync-ordering disk model: stage + rename, power lost right after.

    The rename itself is treated as durable (journalled metadata); the
    staged file's *data blocks* survive only if they were fsynced
    before the rename.  Without the fsync the reader finds the new
    name pointing at zero-length contents — the torn state an
    unsynced rename leaves.
    """
    name = "fsync-rename" if fsync else "nofsync-rename"
    target = scratch / f"{name}.json"
    fd, tmp = tempfile.mkstemp(dir=scratch)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(NEW_PAYLOAD))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, target)
    if not fsync:                   # power failure: unflushed data lost
        with open(target, "r+b") as handle:
            handle.truncate(0)
    return _record(name, "post-rename", _classify(target),
                   "new" if fsync else "torn", emulated=True,
                   detail="machine-crash page-cache drop (emulated)")


def run_crashpoints(scratch: Optional[str] = None) -> Dict[str, Any]:
    """Run every scenario; return the ``crashpoints`` chaos report.

    ``ok`` is true only when the fixed patterns survive **and** the
    pre-fix patterns demonstrably fail — both directions are asserted.
    """
    root = Path(scratch or tempfile.mkdtemp(prefix="repro-crashcheck-"))
    root.mkdir(parents=True, exist_ok=True)
    checks = [partial(_check_bare_overwrite, root),
              *(partial(_check_atomic_replace, root, point)
                for point in atomicio.CRASHPOINTS),
              partial(_disk_model_rename, root, fsync=False),
              partial(_disk_model_rename, root, fsync=True)]
    return chaos_report("crashpoints", [check() for check in checks],
                        len(checks), crashpoints=list(atomicio.CRASHPOINTS),
                        scratch=str(root))
