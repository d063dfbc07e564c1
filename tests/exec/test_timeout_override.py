"""Per-task timeout overrides and the executor's serving-layer hooks."""

import time

import pytest

from repro.errors import ReproError
from repro.exec import (
    Campaign,
    CampaignOptions,
    make_task,
    run_campaign,
)
from repro.exec.campaign import QUARANTINED
from repro.exec.executor import CampaignInterrupted

DEMO_FN = "repro.exec.tasks:demo_task"
CHAOS_FN = "repro.exec.tasks:chaos_task"


class TestTimeoutOverride:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ReproError, match="timeout"):
            make_task({"x": 1.0}, timeout=0.0)

    def test_timeout_is_policy_not_identity(self):
        plain = make_task({"x": 1.0})
        with_timeout = make_task({"x": 1.0}, timeout=5.0)
        assert plain.task_id == with_timeout.task_id
        key_a = Campaign(name="c", fn=DEMO_FN, tasks=[plain]).key
        key_b = Campaign(name="c", fn=DEMO_FN, tasks=[with_timeout]).key
        assert key_a == key_b

    @pytest.mark.stress
    def test_per_task_timeout_fires_before_the_global_one(self):
        """A 0.75 s override must beat a 60 s global watchdog."""
        task = make_task({"index": 0, "fault": "worker_hang",
                          "hang": 120.0},
                         label="hang", timeout=0.75)
        campaign = Campaign(name="override", fn=CHAOS_FN, tasks=[task])
        start = time.monotonic()
        result = run_campaign(campaign, options=CampaignOptions(
            workers=1, task_timeout=60.0, max_retries=0,
            drain_grace=0.5))
        elapsed = time.monotonic() - start
        (outcome,) = result.quarantined
        assert outcome.status == QUARANTINED
        assert outcome.failures[0]["kind"] == "timeout"
        assert "0.75" in outcome.failures[0]["detail"]
        assert elapsed < 30.0    # nowhere near the 60 s global


class TestExternalStop:
    def test_stop_poll_interrupts_between_inline_tasks(self):
        level = {"value": 0}
        seen = []

        def progress(message):
            seen.append(message)
            level["value"] = 1    # request a graceful stop after task 1

        campaign = Campaign(
            name="stoppable", fn=DEMO_FN,
            tasks=[make_task({"x": float(i)}) for i in range(4)])
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(campaign, options=CampaignOptions(
                workers=0, progress=progress,
                stop_requested=lambda: level["value"]))
        partial = excinfo.value.result
        assert partial.counts()["completed"] == len(seen) == 1

    def test_broken_stop_poll_is_ignored(self):
        def bad_poll():
            raise RuntimeError("poll bug")

        campaign = Campaign(name="c", fn=DEMO_FN,
                            tasks=[make_task({"x": 2.0})])
        result = run_campaign(campaign, options=CampaignOptions(
            workers=0, stop_requested=bad_poll))
        assert result.counts()["completed"] == 1
