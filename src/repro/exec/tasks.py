"""Importable campaign task functions.

Spawn-based workers resolve the campaign's task function from a
``"module:function"`` string, so every function a campaign runs must
live at module top level and take exactly one JSON dict of parameters.
This module collects the task functions the repo's own campaigns and
the serve routes run (and :func:`characterize_params`, the params
builder of the first):

* :func:`characterize_task` — one cell characterisation (the unit of
  work behind the Fig. 7/8/9 sweeps; results fold back into the
  experiment context's memo and the disk cache).
* :func:`nvff_task` — one NV flip-flop characterisation (the register
  -file counterpart; the serve layer's ``/v1/nvff`` route).
* :func:`chaos_task` — the controllable misbehaver used by the executor
  chaos harness (``repro chaos --executor``) and the stress tests.
* :func:`demo_task` — a trivial task for CLI smoke tests and overhead
  benchmarks.

Everything crossing the process boundary is plain JSON: parameter
dataclasses are sent as ``asdict`` payloads and rebuilt here, results
are returned as dicts.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import ConvergenceError


# ---------------------------------------------------------------------------
# dataclass <-> JSON payload helpers
# ---------------------------------------------------------------------------

def _cond(payload: Optional[Dict[str, Any]]):
    from ..pg.modes import OperatingConditions
    return None if payload is None else OperatingConditions(**payload)


def _domain(payload: Optional[Dict[str, Any]]):
    from ..cells import PowerDomain
    return None if payload is None else PowerDomain(**payload)


def _fet(payload: Optional[Dict[str, Any]]):
    from ..devices.finfet import FinFETParams
    return None if payload is None else FinFETParams(**payload)


def _mtj(payload: Optional[Dict[str, Any]]):
    from ..devices.mtj import MTJParams
    return None if payload is None else MTJParams(**payload)


def _asdict(value) -> Optional[Dict[str, Any]]:
    return None if value is None else asdict(value)


# ---------------------------------------------------------------------------
# characterisation
# ---------------------------------------------------------------------------

def characterize_params(kind: str, cond=None, domain=None, nfet=None,
                        pfet=None, mtj_params=None,
                        cache_dir: Optional[Union[str, Path]] = None,
                        ) -> Dict[str, Any]:
    """Params dict for :func:`characterize_task` from the dataclasses."""
    return {
        "kind": kind,
        "cond": _asdict(cond),
        "domain": _asdict(domain),
        "nfet": _asdict(nfet),
        "pfet": _asdict(pfet),
        "mtj": _asdict(mtj_params),
        "cache_dir": None if cache_dir is None else str(cache_dir),
    }


def characterize_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell characterisation; returns its flat data payload.

    The worker writes through the shared disk cache (when one is
    configured), so a prewarm campaign leaves the cache hot for the
    serial figure-assembly pass that follows; the returned payload lets
    the parent fold the result into its in-memory memo even when the
    cache is disabled.
    """
    import json as _json

    from ..characterize.runner import characterize_cell
    from ..devices.mtj import MTJ_TABLE1
    from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP

    result = characterize_cell(
        params["kind"],
        cond=_cond(params.get("cond")),
        domain=_domain(params.get("domain")),
        nfet=_fet(params.get("nfet")) or NFET_20NM_HP,
        pfet=_fet(params.get("pfet")) or PFET_20NM_HP,
        mtj_params=_mtj(params.get("mtj")) or MTJ_TABLE1,
        cache_dir=params.get("cache_dir"),
    )
    return _json.loads(result.to_json())


def nvff_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one NV flip-flop characterisation; returns its data payload.

    Register-file counterpart of :func:`characterize_task`; the serve
    layer schedules ``/v1/nvff`` requests through this.
    """
    import json as _json

    from ..characterize.ff_runner import characterize_nvff
    from ..devices.mtj import MTJ_TABLE1
    from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP

    result = characterize_nvff(
        cond=_cond(params.get("cond")),
        nfet=_fet(params.get("nfet")) or NFET_20NM_HP,
        pfet=_fet(params.get("pfet")) or PFET_20NM_HP,
        mtj_params=_mtj(params.get("mtj")) or MTJ_TABLE1,
        cache_dir=params.get("cache_dir"),
    )
    return _json.loads(result.to_json())


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
