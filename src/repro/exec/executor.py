"""Fault-tolerant campaign executor: process isolation, watchdog, retry.

:func:`run_campaign` executes a :class:`~repro.exec.campaign.Campaign`
with a pool of persistent spawn-started worker processes.  The contract:

* **One hung solve kills one worker, not the run.**  Each task carries a
  wall-clock watchdog deadline; on expiry the owning worker process is
  terminated and replaced, and the task is retried elsewhere.
* **Failures are classified, not treated alike.**  A deterministic
  :class:`~repro.errors.AnalysisError` (the recovery ladder inside the
  solver has already been exhausted) is *recorded and skipped* — it
  would fail again identically.  A worker crash or watchdog timeout is
  *retried* with exponential backoff + deterministic jitter up to a
  bounded budget, then quarantined.  A task raising any other exception
  is a *poison task* and quarantined immediately.
* **A worker that dies before it is ready is the pool's fault.**  Its
  task goes back to the queue uncharged, no further worker is spawned,
  and the workers still alive finish what they can; with none left the
  campaign returns with the rest unexecuted and
  :attr:`~repro.exec.campaign.CampaignResult.pool_error` set, for the
  caller's serial pass.
* **The executor keeps no record of its own.**  A task that must
  survive the run makes itself durable: a characterisation task writes
  its result to the characterisation cache before it returns, so a
  rerun of a killed prewarm finds every finished point there and
  simulates only the missing ones.
* **SIGINT/SIGTERM drain gracefully.**  The first signal stops dispatch
  and lets in-flight tasks finish within a grace period; a second
  signal, or grace expiry, terminates the workers.  The partial result
  is raised as :class:`CampaignInterrupted` so callers can print a
  summary and exit non-zero.

``workers=0`` runs the tasks inline in the calling process — same
classification semantics, no isolation (used for overhead baselines
and cheap campaigns).
"""

from __future__ import annotations

import heapq
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from .campaign import (
    COMPLETED,
    QUARANTINED,
    SKIPPED,
    Campaign,
    CampaignInterrupted,
    CampaignResult,
    TaskOutcome,
    TaskSpec,
)


#: Extra allowance (seconds) added to the first deadline of a worker that
#: has not finished importing yet: spawn and heavy imports are not the
#: task's fault.
_WARMUP_GRACE_S = 30.0


@dataclass
class CampaignOptions:
    """Execution policy knobs.

    Attributes
    ----------
    workers:
        Worker-process count; ``0`` executes inline (no isolation).
    task_timeout:
        Per-task wall-clock watchdog in seconds (``None`` = no watchdog).
    max_retries:
        Re-dispatch budget for crash/timeout failures, per task.
    backoff_base / backoff_cap:
        Exponential backoff schedule between retries of one task, in
        seconds; jitter is deterministic per ``(task_id, attempt)``.
    drain_grace:
        Seconds in-flight tasks may keep running after the first
        SIGINT/SIGTERM before workers are terminated.
    forensics_dir:
        When set, every skip/quarantine dumps a JSON post-mortem here
        via :func:`repro.recovery.forensics.dump_failure`.
    progress:
        Optional callable receiving one-line progress strings.
    stop_requested:
        Optional external-drain poll returning the desired interrupt
        level (``0`` = keep running, ``1`` = graceful drain, ``2`` =
        hard stop).  Polled once per scheduler iteration (pooled) or
        between tasks (inline); it can only *raise* the level.  This is
        how an embedding host (the serve layer's SIGTERM handling)
        routes its shutdown through the executor's two-stage drain
        without owning the process signal handlers.
    """

    workers: int = 1
    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    drain_grace: float = 10.0
    forensics_dir: Optional[Union[str, Path]] = None
    progress: Optional[Callable[[str], None]] = None
    stop_requested: Optional[Callable[[], int]] = None

    def __post_init__(self):
        if self.workers < 0:
            raise ReproError("workers must be >= 0")
        if self.max_retries < 0:
            raise ReproError("max_retries must be >= 0")


def _effective_timeout(task: TaskSpec,
                       options: CampaignOptions) -> Optional[float]:
    """Watchdog limit for one task: its own override, else the global."""
    if task.timeout is not None:
        return task.timeout
    return options.task_timeout


def retry_delay(options: CampaignOptions, task_id: str,
                attempt: int) -> float:
    """Backoff before re-dispatching ``attempt`` (1-based) of a task.

    Deterministic jitter in [0.5, 1.5) seeded from the task identity, so
    two campaigns with the same definition retry on the same schedule
    (and tests are reproducible) while simultaneous retries still spread
    out instead of thundering back in lockstep.
    """
    base = options.backoff_base * (2.0 ** max(attempt - 1, 0))
    base = min(base, options.backoff_cap)
    jitter = 0.5 + random.Random(f"{task_id}:{attempt}").random()
    return min(base * jitter, options.backoff_cap)


# ---------------------------------------------------------------------------
# parent-side worker handle
# ---------------------------------------------------------------------------

@dataclass
class _Inflight:
    task: TaskSpec
    dispatched_at: float
    started_at: Optional[float] = None


@dataclass
class _Worker:
    worker_id: int
    process: Any
    queue: Any      # parent -> worker task dispatch
    rqueue: Any     # worker -> parent results; one writer per pipe, so a
    #                 worker crashing mid-``put`` (holding the queue's
    #                 write lock) can never wedge the other workers'
    #                 message streams — the failure that a single shared
    #                 result queue cannot survive.
    ready: Any      # event the worker sets once its imports finished; set
    #                 at once, unlike a queued message, so a worker that
    #                 dies in its first task is never mistaken for one
    #                 that failed to start
    inflight: Optional[_Inflight] = None

    def deadline(self, options: CampaignOptions) -> Optional[float]:
        if self.inflight is None:
            return None
        timeout = _effective_timeout(self.inflight.task, options)
        if timeout is None:
            return None
        if self.inflight.started_at is not None:
            return self.inflight.started_at + timeout
        grace = 0.0 if self.ready.is_set() else _WARMUP_GRACE_S
        return self.inflight.dispatched_at + grace + timeout


def _spawn_worker(ctx, worker_id: int, fn_ref: str) -> _Worker:
    from .worker import worker_main

    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    ready = ctx.Event()
    process = ctx.Process(
        target=worker_main,
        args=(worker_id, fn_ref, task_queue, result_queue, ready),
        name=f"repro-campaign-w{worker_id}",
        daemon=True,
    )
    process.start()
    return _Worker(worker_id=worker_id, process=process, queue=task_queue,
                   rqueue=result_queue, ready=ready)


def _kill_worker(worker: _Worker) -> None:
    process = worker.process
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)
    # release the queues' feeder resources; ignore platform quirks
    for queue in (worker.queue, worker.rqueue):
        try:
            queue.close()
        except (OSError, ValueError):
            pass


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

class _CampaignRun:
    """State machine for one campaign execution."""

    def __init__(self, campaign: Campaign, options: CampaignOptions):
        self.campaign = campaign
        self.options = options
        self.key = campaign.key
        self.tasks = {t.task_id: t for t in campaign.tasks}
        self.order = [t.task_id for t in campaign.tasks]
        self.position = {tid: i for i, tid in enumerate(self.order)}
        self.outcomes: Dict[str, TaskOutcome] = {}
        self.attempts: Dict[str, int] = {}
        self.failures: Dict[str, List[dict]] = {}
        self.elapsed_acc: Dict[str, float] = {}
        self.ready_tasks: deque = deque()
        self.retry_heap: List[Tuple[float, int, str]] = []
        self._retry_seq = 0
        self.interrupt_level = 0
        self.interrupt_signal = ""
        self.pool_error = ""

    # -- helpers ---------------------------------------------------------

    def _progress(self, message: str) -> None:
        if self.options.progress is not None:
            self.options.progress(message)

    def _record(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.task_id] = outcome
        if outcome.status in (SKIPPED, QUARANTINED):
            self._dump_forensics(outcome)
        self._progress(
            f"[{len(self.outcomes)}/{len(self.order)}] "
            f"{outcome.status}: {outcome.label or outcome.task_id}"
            + (f" ({outcome.attempts} attempts)"
               if outcome.attempts > 1 else "")
        )

    def _dump_forensics(self, outcome: TaskOutcome) -> None:
        directory = self.options.forensics_dir
        if directory is None:
            return
        from ..recovery.forensics import dump_failure

        directory = Path(directory)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            payload = {"kind": "task_failure",
                       "campaign": self.campaign.name, "key": self.key}
            payload.update(outcome.to_dict())
            dump_failure(payload,
                         directory / f"{outcome.task_id}.json")
        except OSError:
            pass  # forensics are best-effort; never take down the run

    def _terminal(self, task: TaskSpec, status: str, *,
                  result: Any = None, skip: Optional[dict] = None,
                  elapsed: float = 0.0) -> None:
        attempts = self.attempts.get(task.task_id, 1)
        self._record(TaskOutcome(
            task_id=task.task_id,
            status=status,
            attempts=attempts,
            elapsed=self.elapsed_acc.get(task.task_id, 0.0) + elapsed,
            label=task.label,
            result=result,
            skip=skip,
            failures=self.failures.get(task.task_id, []),
        ))

    def _fail_attempt(self, task: TaskSpec, kind: str, detail: str,
                      now: float) -> None:
        """A crash/timeout attempt failed: retry with backoff or quarantine."""
        self.failures.setdefault(task.task_id, []).append(
            {"kind": kind, "detail": detail,
             "attempt": self.attempts.get(task.task_id, 1)})
        attempt = self.attempts.get(task.task_id, 1)
        if attempt > self.options.max_retries:
            self._terminal(task, QUARANTINED)
            return
        delay = retry_delay(self.options, task.task_id, attempt)
        self._retry_seq += 1
        heapq.heappush(self.retry_heap,
                       (now + delay, self._retry_seq, task.task_id))
        self._progress(f"retrying {task.label or task.task_id} in "
                       f"{delay:.2f}s after {kind}")

    def _finish(self, task: TaskSpec, kind: str, payload: dict) -> None:
        """Record how a task ended, as :func:`~repro.exec.worker.run_task`
        classified it (inline or in a worker)."""
        elapsed = payload.get("elapsed", 0.0)
        if kind == "done":
            self._terminal(task, COMPLETED, result=payload.get("result"),
                           elapsed=elapsed)
        elif kind == "skip":
            self._terminal(task, SKIPPED, skip=payload.get("skip"),
                           elapsed=elapsed)
        else:
            self.failures.setdefault(task.task_id, []).append(
                {"kind": "poison", "detail": payload.get("error", ""),
                 "traceback": payload.get("traceback", ""),
                 "attempt": self.attempts.get(task.task_id, 1)})
            self._terminal(task, QUARANTINED, elapsed=elapsed)

    def _poll_external_stop(self) -> None:
        """Raise the interrupt level from an embedding host's drain poll."""
        if self.options.stop_requested is None:
            return
        try:
            level = int(self.options.stop_requested())
        except Exception:  # lint: skip=RV405 — a broken drain poll must not kill a healthy run
            return
        if level > self.interrupt_level:
            self.interrupt_level = level
            if not self.interrupt_signal:
                self.interrupt_signal = "external drain"

    def pending(self) -> List[str]:
        return [tid for tid in self.order if tid not in self.outcomes]

    def result(self, interrupted: bool, elapsed: float) -> CampaignResult:
        return CampaignResult(
            campaign=self.campaign.name,
            key=self.key,
            outcomes=dict(self.outcomes),
            order=list(self.order),
            interrupted=interrupted,
            elapsed=elapsed,
            pool_error=self.pool_error,
        )


def run_campaign(campaign: Campaign,
                 options: Optional[CampaignOptions] = None) -> CampaignResult:
    """Execute a campaign; see the module docstring for the contract.

    Raises :class:`CampaignInterrupted` (carrying the partial
    :class:`~repro.exec.campaign.CampaignResult`) after a graceful
    signal drain.
    """
    options = options or CampaignOptions()
    campaign.resolve_fn()   # fail fast in the parent on a bad reference

    run = _CampaignRun(campaign, options)
    started = time.time()
    for task_id in run.pending():
        run.ready_tasks.append(task_id)
        run.attempts[task_id] = 1

    try:
        if options.workers == 0:
            _run_inline(run)
        else:
            _run_pooled(run)
    finally:
        elapsed = time.time() - started

    interrupted = run.interrupt_level > 0 and run.pending()
    result = run.result(bool(interrupted), elapsed)
    if interrupted:
        raise CampaignInterrupted(
            f"campaign {campaign.name!r} interrupted by "
            f"{run.interrupt_signal or 'signal'}: "
            f"{len(run.outcomes)} terminal, {len(run.pending())} remaining",
            result,
        )
    return result


# ---------------------------------------------------------------------------
# inline execution (workers=0)
# ---------------------------------------------------------------------------

def _run_inline(run: _CampaignRun) -> None:
    from .worker import run_task

    fn = run.campaign.resolve_fn()
    while run.ready_tasks:
        run._poll_external_stop()
        if run.interrupt_level > 0:
            return
        task = run.tasks[run.ready_tasks.popleft()]
        try:
            kind, payload = run_task(fn, task.params,
                                     run.position[task.task_id], task.label)
        except KeyboardInterrupt:
            run.interrupt_level += 1
            run.interrupt_signal = "SIGINT"
            return
        run._finish(task, kind, payload)


# ---------------------------------------------------------------------------
# pooled execution
# ---------------------------------------------------------------------------

def _run_pooled(run: _CampaignRun) -> None:
    import multiprocessing as mp

    options = run.options
    ctx = mp.get_context("spawn")
    workers: Dict[int, _Worker] = {}
    next_worker_id = 0
    drain_deadline: Optional[float] = None

    def want_workers() -> int:
        outstanding = (len(run.ready_tasks) + len(run.retry_heap)
                       + sum(1 for w in workers.values() if w.inflight))
        return max(0, min(options.workers, outstanding))

    # -- signal handling -------------------------------------------------
    old_handlers: Dict[int, Any] = {}

    def _on_signal(signum, frame):
        # Flag-setting only: this runs between bytecodes inside
        # whatever the main thread was doing, where buffered IO (even
        # the progress print) can raise "reentrant call".  The main
        # loop announces the drain at the flag transition.
        run.interrupt_level += 1
        run.interrupt_signal = signal.Signals(signum).name

    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                old_handlers[signum] = signal.signal(signum, _on_signal)
            except (ValueError, OSError):
                pass

    try:
        while True:
            now = time.monotonic()
            run._poll_external_stop()

            # promote due retries
            while run.retry_heap and run.retry_heap[0][0] <= now:
                _, _, task_id = heapq.heappop(run.retry_heap)
                run.attempts[task_id] += 1
                run.ready_tasks.append(task_id)

            draining = run.interrupt_level > 0
            if draining and drain_deadline is None:
                drain_deadline = now + options.drain_grace
                run._progress(
                    f"{run.interrupt_signal}: draining — in-flight "
                    f"tasks get {options.drain_grace:g}s (signal again "
                    "to stop now)"
                )
            hard_stop = run.interrupt_level >= 2 or (
                drain_deadline is not None and now >= drain_deadline)

            if hard_stop:
                break
            if not draining:
                # top up the pool and dispatch
                while not run.pool_error and len(workers) < want_workers():
                    worker = _spawn_worker(ctx, next_worker_id,
                                           run.campaign.fn)
                    workers[worker.worker_id] = worker
                    next_worker_id += 1
                for worker in workers.values():
                    if worker.inflight is None and run.ready_tasks:
                        task = run.tasks[run.ready_tasks.popleft()]
                        worker.inflight = _Inflight(task, now)
                        worker.queue.put((task.task_id, task.params,
                                          run.position[task.task_id],
                                          task.label))

            # computed *after* dispatch: a just-dispatched task counts
            # as in flight, or the exit checks below fire one loop early
            inflight = [w for w in workers.values() if w.inflight]
            if draining and not inflight:
                break  # drained: nothing running, stop dispatching
            if run.pool_error and not workers:
                break  # no worker could start; the rest stays unexecuted
            if not run.pending():
                break
            if (not draining and not inflight and not run.ready_tasks
                    and not run.retry_heap):
                break  # nothing left anywhere (defensive)

            # -- receive ------------------------------------------------
            # Drain every worker's own result queue.  This runs before
            # the liveness check below, so a worker whose terminal
            # message ("done"/"skip") beat its own death is credited
            # with the result instead of a spurious crash retry.
            got_any = False
            for worker in list(workers.values()):
                while True:
                    try:
                        kind, worker_id, task_id, payload = (
                            worker.rqueue.get_nowait())
                    except Empty:
                        break
                    except (EOFError, OSError):
                        break
                    got_any = True
                    if kind == "start":
                        if (worker.inflight is not None
                                and worker.inflight.task.task_id
                                == task_id):
                            worker.inflight.started_at = time.monotonic()
                    elif kind in ("done", "skip", "error"):
                        current = worker.inflight
                        if (current is not None
                                and current.task.task_id == task_id
                                and task_id not in run.outcomes):
                            worker.inflight = None
                            run._finish(current.task, kind, payload)
                        else:
                            worker.inflight = None
            if not got_any:
                time.sleep(0.02)

            now = time.monotonic()

            # -- watchdog + liveness -------------------------------------
            for worker in list(workers.values()):
                current = worker.inflight
                deadline = worker.deadline(options)
                if (current is not None and deadline is not None
                        and now >= deadline):
                    elapsed = now - (current.started_at
                                     or current.dispatched_at)
                    run.elapsed_acc[current.task.task_id] = (
                        run.elapsed_acc.get(current.task.task_id, 0.0)
                        + elapsed)
                    _kill_worker(worker)
                    del workers[worker.worker_id]
                    limit = _effective_timeout(current.task, options)
                    run._fail_attempt(
                        current.task, "timeout",
                        f"watchdog expired after {elapsed:.2f}s "
                        f"(limit {limit:g}s) on worker "
                        f"{worker.worker_id}", now)
                    continue
                if not worker.process.is_alive():
                    del workers[worker.worker_id]
                    exitcode = worker.process.exitcode
                    if not worker.ready.is_set():
                        if current is not None:
                            run.ready_tasks.appendleft(current.task.task_id)
                        run.pool_error = run.pool_error or (
                            f"worker {worker.worker_id} died before it was "
                            f"ready, exit code {exitcode}")
                    elif current is not None:
                        run._fail_attempt(
                            current.task, "crash",
                            f"worker {worker.worker_id} died with exit "
                            f"code {exitcode}", now)
                    # an idle ready worker that died is replaced by the
                    # top-up above on the next iteration
    finally:
        for worker in workers.values():
            if worker.inflight is None and worker.process.is_alive():
                try:
                    worker.queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers.values():
            _kill_worker(worker)
        if in_main_thread:
            for signum, handler in old_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
