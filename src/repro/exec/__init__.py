"""repro.exec: fault-tolerant, checkpointed campaign execution.

A *campaign* is a named, content-hashed list of independent tasks (one
per characterisation point of a figure prewarm, or one per served
request) executed by process-isolated workers with watchdog timeouts,
classified failure handling (skip / retry-with-backoff / quarantine),
an append-only JSONL journal for crash-safe resume, and graceful
SIGINT/SIGTERM draining.  See ``docs/ROBUSTNESS.md`` ("Campaigns") for
the failure taxonomy and journal format.
"""

from .campaign import (
    COMPLETED,
    QUARANTINED,
    SKIPPED,
    TERMINAL_STATES,
    Campaign,
    CampaignError,
    CampaignResult,
    TaskOutcome,
    TaskSpec,
    make_task,
    resolve_task_fn,
    stable_hash,
)
from .executor import (
    CampaignInterrupted,
    CampaignOptions,
    retry_delay,
    run_campaign,
)
from .journal import Journal, journal_status, render_status

__all__ = [
    "COMPLETED",
    "QUARANTINED",
    "SKIPPED",
    "TERMINAL_STATES",
    "Campaign",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignOptions",
    "CampaignResult",
    "Journal",
    "TaskOutcome",
    "TaskSpec",
    "journal_status",
    "make_task",
    "render_status",
    "resolve_task_fn",
    "retry_delay",
    "run_campaign",
    "stable_hash",
]
