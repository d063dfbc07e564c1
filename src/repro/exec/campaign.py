"""Campaign abstraction: a named, hashable list of pure tasks.

A :class:`Campaign` is the unit of fault-tolerant execution: a name, a
task function (referenced by an importable ``"module:attr"`` string so
spawn-based workers can resolve it without pickling closures) and a list
of :class:`TaskSpec` entries whose parameters are plain JSON data.

Everything is content-addressed: each task gets a deterministic
``task_id`` hashed from its parameters, and the campaign as a whole gets
a :attr:`Campaign.key` hashed from the name, the function reference and
every task, which names the campaign in its result and forensics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError

#: Terminal task states.  Every task of a finished campaign lands in
#: exactly one of these (the N-in/N-out invariant); an interrupted
#: campaign may additionally leave tasks absent (= not yet executed).
COMPLETED = "completed"
SKIPPED = "skipped"
QUARANTINED = "quarantined"
TERMINAL_STATES = (COMPLETED, SKIPPED, QUARANTINED)


class CampaignError(ReproError):
    """A campaign definition is malformed."""


class CampaignInterrupted(ReproError):
    """Raised after a graceful drain; carries the partial result."""

    def __init__(self, message: str, result: CampaignResult):
        super().__init__(message)
        self.result = result


def _normalise(value: Any) -> Any:
    """Canonicalise a value for hashing (task ids and cache keys)."""
    if is_dataclass(value) and not isinstance(value, type):
        payload = asdict(value)
        payload["__type__"] = type(value).__name__
        return {k: _normalise(v) for k, v in payload.items()}
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, float):
        return float(repr(value))
    return value


def stable_hash(value: Any, length: int = 16) -> str:
    """Deterministic content hash of any JSON-able structure."""
    blob = json.dumps(_normalise(value), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:length]


@dataclass(frozen=True)
class TaskSpec:
    """One point of a campaign.

    Attributes
    ----------
    task_id:
        Stable identifier; by default the content hash of ``params``.
    params:
        JSON-serialisable argument mapping handed to the task function.
    label:
        Human-readable description for summaries and forensics.
    timeout:
        Per-task watchdog override in seconds.  ``None`` falls back to
        :attr:`~repro.exec.executor.CampaignOptions.task_timeout`.  Like
        ``label`` it is execution policy, not content: it does not enter
        the task id or the campaign key (the serve layer maps
        per-request deadlines here).
    """

    task_id: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    timeout: Optional[float] = None

    def __post_init__(self):
        try:
            json.dumps(self.params)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"task {self.task_id!r} params are not JSON-serialisable: "
                f"{exc}"
            ) from exc
        if self.timeout is not None and self.timeout <= 0:
            raise CampaignError(
                f"task {self.task_id!r} timeout must be positive, got "
                f"{self.timeout!r}"
            )


def make_task(params: Dict[str, Any], label: str = "",
              task_id: Optional[str] = None,
              timeout: Optional[float] = None) -> TaskSpec:
    """Build a :class:`TaskSpec` with a content-derived id."""
    if task_id is None:
        try:
            task_id = stable_hash(params)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"task params are not JSON-serialisable: {exc}"
            ) from exc
    return TaskSpec(task_id=task_id, params=dict(params), label=label,
                    timeout=timeout)


def resolve_task_fn(ref: str) -> Callable[[Dict[str, Any]], Any]:
    """Import a ``"package.module:function"`` task-function reference."""
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr:
        raise CampaignError(
            f"task fn reference must look like 'pkg.mod:fn', got {ref!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise CampaignError(f"cannot import task module {module_name!r}: "
                            f"{exc}") from exc
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise CampaignError(f"{ref!r} does not name a callable")
    return fn


@dataclass
class Campaign:
    """A named, hashable batch of independent tasks.

    Attributes
    ----------
    name:
        Campaign name (used in summaries and forensics).
    fn:
        ``"module:function"`` reference to the pure task function; it
        receives one task's ``params`` dict and returns a
        JSON-serialisable result.
    tasks:
        The task list.  Order defines the index used in summaries, but
        tasks are independent and may complete in any order.
    """

    name: str
    fn: str
    tasks: List[TaskSpec] = field(default_factory=list)

    def __post_init__(self):
        seen: Dict[str, int] = {}
        for i, task in enumerate(self.tasks):
            if task.task_id in seen:
                raise CampaignError(
                    f"duplicate task_id {task.task_id!r} at positions "
                    f"{seen[task.task_id]} and {i}"
                )
            seen[task.task_id] = i

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def key(self) -> str:
        """Content hash of the full campaign definition."""
        return stable_hash({
            "name": self.name,
            "fn": self.fn,
            "tasks": [[t.task_id, t.params] for t in self.tasks],
        }, length=24)

    def resolve_fn(self) -> Callable[[Dict[str, Any]], Any]:
        return resolve_task_fn(self.fn)

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise CampaignError(f"no task {task_id!r} in campaign {self.name!r}")


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass
class TaskOutcome:
    """Terminal record of one task.

    ``failures`` lists every failed attempt (worker crash, watchdog
    timeout, poison error) that preceded the terminal state, so a task
    that crashed twice and then completed still tells the whole story.
    """

    task_id: str
    status: str
    attempts: int = 1
    elapsed: float = 0.0
    label: str = ""
    result: Optional[Any] = None
    skip: Optional[Dict[str, Any]] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "label": self.label,
            "result": self.result,
            "skip": self.skip,
            "failures": list(self.failures),
        }


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run.

    ``outcomes`` holds one entry per *terminal* task; an interrupted run
    leaves unfinished tasks absent, and :attr:`interrupted` is set.  So
    does a pool whose workers died before they were ready, and
    :attr:`pool_error` says which.
    """

    campaign: str
    key: str
    outcomes: Dict[str, TaskOutcome] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    interrupted: bool = False
    elapsed: float = 0.0
    pool_error: str = ""

    def _by_status(self, status: str) -> List[TaskOutcome]:
        return [self.outcomes[tid] for tid in self.order
                if tid in self.outcomes
                and self.outcomes[tid].status == status]

    @property
    def completed(self) -> List[TaskOutcome]:
        return self._by_status(COMPLETED)

    @property
    def skipped(self) -> List[TaskOutcome]:
        return self._by_status(SKIPPED)

    @property
    def quarantined(self) -> List[TaskOutcome]:
        return self._by_status(QUARANTINED)

    @property
    def remaining(self) -> List[str]:
        """Task ids with no terminal outcome (interrupt or pool-error
        leftovers)."""
        return [tid for tid in self.order if tid not in self.outcomes]

    @property
    def retries(self) -> int:
        """Total extra attempts spent across all tasks."""
        return sum(o.attempts - 1 for o in self.outcomes.values())

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in TERMINAL_STATES}
        for outcome in self.outcomes.values():
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def results(self) -> Dict[str, Any]:
        """``task_id -> result payload`` for the completed tasks."""
        return {o.task_id: o.result for o in self.completed}

    def outcome(self, task_id: str) -> Optional[TaskOutcome]:
        return self.outcomes.get(task_id)

    def summary(self) -> str:
        counts = self.counts()
        task_time = sum(o.elapsed for o in self.outcomes.values())
        parts = [f"{counts[COMPLETED]}/{len(self.order)} completed in "
                 f"{self.elapsed:.1f} s ({task_time:.1f} s of task time)"]
        if counts[SKIPPED]:
            parts.append(f"{counts[SKIPPED]} skipped")
        if counts[QUARANTINED]:
            parts.append(f"{counts[QUARANTINED]} quarantined")
        if self.retries:
            parts.append(f"{self.retries} retried attempt(s)")
        if self.interrupted:
            parts.append(f"INTERRUPTED ({len(self.remaining)} remaining)")
        if self.pool_error:
            parts.append(f"{len(self.remaining)} not executed after the "
                         f"pool stopped: {self.pool_error}")
        return f"campaign {self.campaign!r}: " + ", ".join(parts)

    def render(self) -> str:
        """Multi-line completion/skip/quarantine report."""
        lines = [self.summary()]
        for status, title in ((SKIPPED, "skipped (record-and-skip)"),
                              (QUARANTINED, "quarantined")):
            rows = self._by_status(status)
            if not rows:
                continue
            lines.append(f"  {title}:")
            for o in rows:
                label = o.label or o.task_id
                detail = ""
                if o.skip:
                    detail = (f" — {o.skip.get('error_type')}: "
                              f"{o.skip.get('reason')}")
                elif o.failures:
                    last = o.failures[-1]
                    detail = (f" — {last.get('kind')}: "
                              f"{last.get('detail')}")
                lines.append(f"    [{o.attempts} attempt(s)] {label}{detail}")
        if self.remaining:
            lines.append(f"  not executed: {len(self.remaining)} task(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "kind": "campaign_result",
            "campaign": self.campaign,
            "key": self.key,
            "interrupted": self.interrupted,
            "elapsed": self.elapsed,
            "pool_error": self.pool_error,
            "counts": self.counts(),
            "outcomes": [self.outcomes[tid].to_dict()
                         for tid in self.order if tid in self.outcomes],
            "remaining": self.remaining,
        }
