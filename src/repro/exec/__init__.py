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

from .. import _lazy_exports

_EXPORTS = {
    "COMPLETED": ".campaign",
    "QUARANTINED": ".campaign",
    "SKIPPED": ".campaign",
    "TERMINAL_STATES": ".campaign",
    "Campaign": ".campaign",
    "CampaignError": ".campaign",
    "CampaignInterrupted": ".campaign",
    "CampaignOptions": ".executor",
    "CampaignResult": ".campaign",
    "TaskOutcome": ".campaign",
    "TaskSpec": ".campaign",
    "make_task": ".campaign",
    "resolve_task_fn": ".campaign",
    "retry_delay": ".executor",
    "run_campaign": ".executor",
    "stable_hash": ".campaign",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
