"""One atomic durable-write protocol for every store in the repo.

Every durable file the repo writes (the characterisation cache, the
golden corpus, ``BENCH_*.json``) is replaced through this one
stage-then-rename implementation (the cache envelope,
:mod:`repro.exec.envelope`, writes through it), and it is the
instrumented boundary the crash-injection harness
(:mod:`repro.verify.crashcheck`) kills children at.

The protocol, in order:

1. ``tempfile.mkstemp`` in the destination directory — same filesystem,
   so the final rename is atomic; a unique name per writer, so
   concurrent writers of the same key never interleave.
2. write the full text, flush.
3. ``os.fsync`` the staged file — the data must be on stable storage
   *before* the rename publishes it, otherwise a power cut can leave
   the new name pointing at unwritten blocks (an unsynced rename).
4. ``os.replace`` onto the destination: readers see the old bytes or
   the new bytes, never a mixture, and the old value survives a crash
   at any earlier point.

Failures propagate as ``OSError`` after the staged file is removed;
callers own their degrade policy (the cache warns once and disables
itself, the CLI surfaces the error).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional, Union

#: The instrumented effect boundaries, in protocol order.  The crash
#: harness kills a child at each one and asserts reader-side recovery.
CRASHPOINTS = ("post-write", "pre-fsync", "pre-rename", "post-rename")

#: Test-only injection hook: called with the crashpoint name at each
#: boundary.  ``repro.verify.crashcheck`` installs an ``os._exit`` here
#: in child processes; production leaves it ``None`` (zero-cost check).
_CRASH_HOOK: Optional[Callable[[str], None]] = None


def _checkpoint(point: str) -> None:
    if _CRASH_HOOK is not None:
        _CRASH_HOOK(point)


def atomic_write_text(path: Union[str, Path], text: str, *,
                      encoding: str = "utf-8",
                      durable: bool = True) -> None:
    """Atomically replace ``path``'s contents with ``text``.

    Stages into a ``mkstemp`` sibling, fsyncs (unless ``durable=False``
    — only for stores whose loss is acceptable *and* detectable), then
    renames over the destination.  Raises ``OSError`` on failure with
    the staged file cleaned up; the destination is never left torn.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent,
                                    prefix=f"{target.name}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            _checkpoint("post-write")
            handle.flush()
            _checkpoint("pre-fsync")
            if durable:
                os.fsync(handle.fileno())
        _checkpoint("pre-rename")
        os.replace(tmp_name, target)
        _checkpoint("post-rename")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
