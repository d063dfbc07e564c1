"""Bridge from canonical serve requests onto the campaign executor.

Every coalesced group executes as a single-task campaign through
:func:`repro.exec.executor.run_campaign`: the request key is the task
id, the request deadline is the task's watchdog ``timeout`` override,
and the executor's failure classification (skip / retry / quarantine)
becomes the response status.  With ``workers >= 1`` the task runs in a
spawned worker process — a crash or hang costs one worker, never the
server; ``workers=0`` runs inline in the calling thread (fast, no
isolation, used by unit tests and trusted deployments).

The backend also owns the read side of degraded mode: a bounded
in-memory LRU memo of recent results plus the characterisation disk
cache (:mod:`repro.characterize.cache`, under the request point's key),
both probed before any execution is scheduled.

``execute`` blocks and is called from a worker thread; the memo and
counters take a lock.  ``probe`` is cheap (dict lookup + at most one
small file read) and safe from any thread.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..exec.campaign import (
    COMPLETED,
    QUARANTINED,
    SKIPPED,
    Campaign,
    TaskSpec,
)
from ..exec.executor import CampaignInterrupted, CampaignOptions, run_campaign
from .protocol import ServeRequest

#: Task function behind each servable route.  ``demo`` and ``chaos``
#: are test/benchmark routes, only mounted when explicitly enabled.
ROUTE_FNS: Dict[str, str] = {
    "characterize": "repro.exec.tasks:characterize_task",
    "nvff": "repro.exec.tasks:characterize_task",
    "demo": "repro.exec.tasks:demo_task",
    "chaos": "repro.exec.tasks:chaos_task",
}


#: Entries of the in-memory result memo (least recently used evicted).
MEMO_SIZE = 512

#: Extra watchdog allowance for a worker still importing (seconds).
_WARMUP_GRACE_S = 30.0


@dataclass
class CacheHit:
    """A result served without executing anything."""

    payload: Dict[str, Any]
    age_s: Optional[float]
    source: str     # "memo" | "disk"


class ExecBackend:
    """Executor-backed request evaluation with memo + disk-cache reads."""

    def __init__(self, routes: Dict[str, str], *,
                 workers: int = 0,
                 max_retries: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 forensics_dir: Optional[Union[str, Path]] = None,
                 stop_level: Optional[Callable[[], int]] = None):
        self.routes = dict(routes)
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.forensics_dir = forensics_dir
        self._stop_level = stop_level or (lambda: 0)
        self._lock = threading.Lock()
        # key -> (payload, stored_at monotonic); LRU bounded at MEMO_SIZE
        self._memo: "OrderedDict[str, Tuple[Dict[str, Any], float]]" = (
            OrderedDict())
        self.executions = 0
        self.inflight = 0
        self.outcomes = {COMPLETED: 0, SKIPPED: 0, QUARANTINED: 0,
                         "interrupted": 0, "error": 0}

    # -- cache reads -----------------------------------------------------

    def memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._memo[key] = (payload, time.monotonic())
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_SIZE:
                self._memo.popitem(last=False)

    def probe(self, request: ServeRequest) -> Optional[CacheHit]:
        """Look for an already-computed result; never executes."""
        with self._lock:
            entry = self._memo.get(request.key)
            if entry is not None:
                self._memo.move_to_end(request.key)
                payload, stored_at = entry
                return CacheHit(payload=payload,
                                age_s=max(0.0, time.monotonic() - stored_at),
                                source="memo")
        point = request.point
        if self.cache_dir is None or point is None:
            return None
        from ..characterize import cache
        from ..exec.envelope import entry_age_s

        key = point.key
        result = cache.load(self.cache_dir, key, point.result_type)
        if result is None:
            return None
        payload = asdict(result)
        age_s = entry_age_s(self.cache_dir, key)
        self.memo_put(request.key, payload)
        return CacheHit(payload=payload, age_s=age_s, source="disk")

    # -- execution -------------------------------------------------------

    def _campaign_for(self, request: ServeRequest,
                      timeout_s: Optional[float]) -> Campaign:
        params = dict(request.params)
        if request.point is not None and self.cache_dir is not None:
            # execution policy, injected after canonicalisation so the
            # coalescing key never depends on where the cache lives
            params["cache_dir"] = str(self.cache_dir)
        task = TaskSpec(task_id=request.key, params=params,
                        label=f"serve:{request.route}:{request.key[:8]}",
                        timeout=timeout_s)
        return Campaign(name=f"serve-{request.route}",
                        fn=self.routes[request.route], tasks=[task])

    def execute(self, request: ServeRequest,
                timeout_s: Optional[float]) -> Dict[str, Any]:
        """Run one group to a terminal outcome dict.  Blocking.

        ``timeout_s`` becomes the task's watchdog override (pooled mode
        kills and retries/quarantines a worker that exceeds it).  The
        returned dict always carries a ``status`` from {``completed``,
        ``skipped``, ``quarantined``, ``interrupted``, ``error``}.
        """
        if timeout_s is not None and timeout_s <= 0:
            timeout_s = 0.001     # clamp: TaskSpec requires positive
        campaign = self._campaign_for(request, timeout_s)
        options = CampaignOptions(
            workers=self.workers,
            task_timeout=None,
            warmup_grace=_WARMUP_GRACE_S,
            max_retries=self.max_retries,
            backoff_base=0.05,
            backoff_cap=1.0,
            drain_grace=2.0,
            forensics_dir=self.forensics_dir,
            # only a *hard* server stop interrupts an admitted
            # interactive execution; a graceful drain lets it finish
            stop_requested=lambda: 2 if self._stop_level() >= 2 else 0,
        )
        with self._lock:
            self.executions += 1
            self.inflight += 1
        try:
            try:
                result = run_campaign(campaign, options)
                outcome = result.outcome(request.key)
            except CampaignInterrupted as err:
                outcome = err.result.outcome(request.key)
                if outcome is None:
                    with self._lock:
                        self.outcomes["interrupted"] += 1
                    return {"status": "interrupted",
                            "detail": "server stopping"}
            except Exception as err:  # lint: skip=RV405 — a backend bug must still resolve the group; detail is preserved in the response
                with self._lock:
                    self.outcomes["error"] += 1
                return {"status": "error", "detail": repr(err)}
            if outcome is None:     # no worker could start
                with self._lock:
                    self.outcomes["error"] += 1
                return {"status": "error",
                        "detail": result.pool_error
                        or "executor returned no outcome"}
            with self._lock:
                self.outcomes[outcome.status] = (
                    self.outcomes.get(outcome.status, 0) + 1)
            summary = {
                "status": outcome.status,
                "attempts": outcome.attempts,
                "elapsed_s": outcome.elapsed,
            }
            if outcome.status == COMPLETED:
                payload = outcome.result
                if isinstance(payload, dict):
                    self.memo_put(request.key, payload)
                summary["result"] = payload
            elif outcome.status == SKIPPED:
                summary["skip"] = outcome.skip
            else:
                summary["failures"] = outcome.failures
            return summary
        finally:
            with self._lock:
                self.inflight -= 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "workers": self.workers,
                "executions": self.executions,
                "inflight": self.inflight,
                "outcomes": dict(self.outcomes),
                "memo_entries": len(self._memo),
                "memo_size": MEMO_SIZE,
            }
