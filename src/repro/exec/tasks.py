"""Importable campaign task functions.

Spawn-based workers resolve the campaign's task function from a
``"module:function"`` string, so every function a campaign runs must
live at module top level and take exactly one JSON dict of parameters.
This module collects the task functions the repo's own campaigns and
the serve routes run:

* :func:`characterize_task` — one cell or NV flip-flop characterisation
  (the unit of work behind the Fig. 7/8/9 sweeps and both serve routes;
  results fold back into the experiment context's memo and the disk
  cache).
* :func:`chaos_task` — the controllable misbehaver used by the executor
  chaos harness (``repro chaos --executor``) and the stress tests.
* :func:`demo_task` — a trivial task for CLI smoke tests and overhead
  benchmarks.

Everything crossing the process boundary is plain JSON: a
characterisation is sent as its point's JSON form
(:meth:`repro.characterize.cache.CellPoint.to_params`) and rebuilt
here, results are returned as dicts.

What a task runs is imported at module top level: a worker resolves its
task function before it reports ready, so those imports fall inside
the watchdog's warm-up grace, not inside the first task's deadline.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict

from ..characterize.cache import CellPoint
from ..characterize.ff_runner import characterize_nvff
from ..characterize.runner import characterize_cell
from ..errors import ConvergenceError


# ---------------------------------------------------------------------------
# characterisation
# ---------------------------------------------------------------------------

def characterize_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one characterisation; returns its flat data payload.

    ``params`` is a :class:`~repro.characterize.cache.CellPoint`'s JSON
    form plus the ``cache_dir`` to write through.  The
    worker writes through the shared disk cache (when one is
    configured), so a prewarm campaign leaves the cache hot for the
    serial figure-assembly pass that follows; the returned payload lets
    the parent fold the result into its in-memory memo even when the
    cache is disabled.
    """
    point = CellPoint.from_params(params)
    cache_dir = params.get("cache_dir")
    if point.kind == "nvff":
        result = characterize_nvff(point.cond, point.nfet, point.pfet,
                                   point.mtj, cache_dir=cache_dir)
    else:
        result = characterize_cell(point.kind, point.cond, point.domain,
                                   point.nfet, point.pfet, point.mtj,
                                   cache_dir=cache_dir)
    return asdict(result)


# ---------------------------------------------------------------------------
# chaos + demo
# ---------------------------------------------------------------------------

def chaos_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Deliberately misbehaving task for the executor chaos harness.

    ``params["fault"]`` selects the injected behaviour (see
    ``repro.recovery.faults.EXEC_FAULT_KINDS``); ``None`` is a healthy
    task.  ``flaky_crash`` uses a marker file under ``params["scratch"]``
    to crash on the first attempt and succeed on the retry — exactly the
    transient failure the retry budget exists for.
    """
    index = params.get("index", 0)
    fault = params.get("fault")
    time.sleep(float(params.get("work", 0.0)))
    if fault == "worker_crash":
        os._exit(13)
    elif fault == "worker_hang":
        time.sleep(float(params.get("hang", 3600.0)))
    elif fault == "slow_task":
        time.sleep(float(params.get("delay", 1.0)))
    elif fault == "flaky_crash":
        marker = Path(params["scratch"]) / f"flaky-{index}.attempted"
        if not marker.exists():
            # The marker write IS the injected fault: crash-once-then
            # succeed needs cross-attempt state, and the scratch dir is
            # owned by the chaos harness.  Real tasks must not do this.
            marker.touch()
            os._exit(13)
    elif fault == "task_error":
        raise RuntimeError(f"injected poison in task {index}")
    elif fault == "conv_skip":
        raise ConvergenceError(
            f"injected convergence failure in task {index}",
            iterations=50, residual=1e-3,
            worst_nodes=[("q", 1e-3)],
        )
    elif fault is not None:
        raise RuntimeError(f"unknown chaos fault kind {fault!r}")
    return {"index": index, "value": index * index}


def demo_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Square a number, optionally slowly (CLI smoke tests, benchmarks)."""
    time.sleep(float(params.get("work", 0.0)))
    x = float(params.get("x", 0.0))
    return {"x": x, "y": x * x}
