"""repro.exec: fault-tolerant campaign execution.

A *campaign* is a named, content-hashed list of independent tasks (one
per characterisation point of a figure prewarm, or one per served
request) executed by process-isolated workers with watchdog timeouts,
classified failure handling (skip / retry-with-backoff / quarantine)
and graceful SIGINT/SIGTERM draining.  The campaign keeps no record of
its own: a finished characterisation is durable in the characterisation
cache, so rerunning an interrupted prewarm simulates only the missing
points.  See ``docs/ROBUSTNESS.md`` ("Campaigns") for the failure
taxonomy and resume semantics.
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
    "TaskOutcome",
    "TaskSpec",
    "make_task",
    "resolve_task_fn",
    "retry_delay",
    "run_campaign",
    "stable_hash",
]
