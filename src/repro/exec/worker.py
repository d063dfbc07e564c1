"""Worker-process side of the campaign executor.

Each worker is one spawned process running :func:`worker_main`: resolve
the campaign's task function once, then loop pulling ``(task_id,
params, attempt)`` items from a dedicated dispatch queue and pushing
outcome messages onto the shared result queue.

Once its imports finish, the worker sets its ``ready`` event: the
parent stops applying the warm-up grace to its watchdog deadlines, and
charges a later death to the task it was running.

Message protocol (worker -> parent), all tuples
``(kind, worker_id, task_id, payload)``:

``("start", id, task_id, {"attempt": n})``
    The task function is about to run; the parent arms the watchdog.
``("done", id, task_id, {"result": ..., "elapsed": s})``
    Task returned a JSON-serialisable result.
``("skip", id, task_id, {"skip": {...}, "elapsed": s})``
    Task raised an :class:`~repro.errors.AnalysisError` after the
    recovery ladder was exhausted — deterministic, record-and-skip.
``("error", id, task_id, {"error", "traceback", "elapsed"})``
    Task raised a non-analysis exception: a poison task.  The parent
    quarantines it instead of retrying.
``("bye", id, None, {})``
    Clean shutdown after the ``None`` sentinel.

Workers ignore SIGINT: interactive Ctrl-C delivers SIGINT to the whole
foreground process group, and the *parent* owns the drain decision (it
terminates workers explicitly when the grace period expires).
"""

from __future__ import annotations

import json
import signal
import time
import traceback
from typing import Any, Dict


def worker_main(worker_id: int, fn_ref: str, task_queue,
                result_queue, ready) -> None:
    """Entry point of one spawned campaign worker."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    # Heavy imports happen here, inside the worker, so the parent's
    # dispatch loop never pays for them and the watchdog can tell
    # "warming up" from "hung" via the ready event below.
    from ..errors import AnalysisError
    from ..recovery.partial import SkipRecord
    from .campaign import resolve_task_fn

    fn = resolve_task_fn(fn_ref)
    ready.set()

    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("bye", worker_id, None, {}))
            return
        task_id, params, attempt, label = item
        result_queue.put(("start", worker_id, task_id, {"attempt": attempt}))
        t0 = time.monotonic()
        try:
            result = fn(params)
            payload: Dict[str, Any] = {"result": _json_safe(result),
                                       "elapsed": time.monotonic() - t0}
            result_queue.put(("done", worker_id, task_id, payload))
        except AnalysisError as err:
            skip = SkipRecord.from_error(err, index=attempt, label=label,
                                         stage="campaign")
            result_queue.put(("skip", worker_id, task_id,
                              {"skip": skip.to_dict(),
                               "elapsed": time.monotonic() - t0}))
        except BaseException as err:  # noqa: B036  # lint: skip=RV405
            # Poison task: anything non-analysis (programming errors,
            # corrupted params).  The full traceback travels back to the
            # parent's forensics — nothing is swallowed, and the worker
            # survives to take the next task.
            result_queue.put(("error", worker_id, task_id,
                              {"error": repr(err),
                               "traceback": traceback.format_exc(),
                               "elapsed": time.monotonic() - t0}))
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise


def _json_safe(result: Any) -> Any:
    """Reject non-JSON results in the worker, where the traceback helps."""
    json.dumps(result)
    return result
