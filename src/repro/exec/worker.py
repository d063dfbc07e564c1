"""Worker-process side of the campaign executor.

Each worker is one spawned process running :func:`worker_main`: resolve
the campaign's task function once, then loop pulling ``(task_id,
params, index, label)`` items from a dedicated dispatch queue and pushing
outcome messages onto its result queue.  :func:`run_task` classifies how
a task ended, here and in the executor's inline mode alike.

Once its imports finish, the worker sets its ``ready`` event: the
parent stops applying the warm-up grace to its watchdog deadlines, and
charges a later death to the task it was running.

Message protocol (worker -> parent), all tuples
``(kind, worker_id, task_id, payload)``:

``("start", id, task_id, {})``
    The task function is about to run; the parent arms the watchdog.
``("done", id, task_id, {"result": ..., "elapsed": s})``
    Task returned a JSON-serialisable result.
``("skip", id, task_id, {"skip": {...}, "elapsed": s})``
    Task raised an :class:`~repro.errors.AnalysisError` after the
    recovery ladder was exhausted — deterministic, record-and-skip.
``("error", id, task_id, {"error", "traceback", "elapsed"})``
    Task raised any other exception, or returned a result JSON cannot
    encode: a poison task.  The parent quarantines it instead of
    retrying.
``("bye", id, None, {})``
    Clean shutdown after the ``None`` sentinel.

Workers ignore SIGINT: interactive Ctrl-C delivers SIGINT to the whole
foreground process group, and the *parent* owns the drain decision (it
terminates workers explicitly when the grace period expires).  A task
that raises ``KeyboardInterrupt`` or ``SystemExit`` ends its worker,
which the parent charges as a crash.
"""

from __future__ import annotations

import json
import signal
import time
import traceback
from typing import Any, Callable, Dict, Tuple

from ..errors import AnalysisError
from ..recovery.partial import SkipRecord


def worker_main(worker_id: int, fn_ref: str, task_queue,
                result_queue, ready) -> None:
    """Entry point of one spawned campaign worker."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    # Heavy imports happen here, inside the worker, so the parent's
    # dispatch loop never pays for them and the watchdog can tell
    # "warming up" from "hung" via the ready event below.  Resolving the
    # task function imports its module, and with it everything that
    # module imports at top level (see repro.exec.tasks).
    from .campaign import resolve_task_fn

    fn = resolve_task_fn(fn_ref)
    ready.set()

    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("bye", worker_id, None, {}))
            return
        task_id, params, index, label = item
        result_queue.put(("start", worker_id, task_id, {}))
        kind, payload = run_task(fn, params, index, label)
        result_queue.put((kind, worker_id, task_id, payload))


def run_task(fn: Callable[[Dict[str, Any]], Any], params: Dict[str, Any],
             index: int, label: str) -> Tuple[str, Dict[str, Any]]:
    """Run one task and classify how it ended: ``("done", ...)``,
    ``("skip", ...)`` or ``("error", ...)`` with the payloads of the
    message protocol above.  ``index`` is the task's position in its
    campaign, recorded in a skip."""
    t0 = time.monotonic()
    try:
        result = fn(params)
        json.dumps(result)   # a task returns JSON data (see Campaign.fn)
        return "done", {"result": result, "elapsed": time.monotonic() - t0}
    except AnalysisError as err:
        skip = SkipRecord.from_error(err, index=index, label=label,
                                     stage="campaign")
        return "skip", {"skip": skip.to_dict(),
                        "elapsed": time.monotonic() - t0}
    except Exception as err:  # lint: skip=RV405 — poison keeps the traceback
        # Poison task: anything non-analysis (programming errors,
        # corrupted params, a result JSON cannot encode).  The full
        # traceback travels to the forensics — nothing is swallowed,
        # and a worker survives to take the next task.
        return "error", {"error": repr(err),
                         "traceback": traceback.format_exc(),
                         "elapsed": time.monotonic() - t0}
