"""Executor semantics: classification, retry policy, pooling."""

import json

import pytest

from repro.errors import ReproError
from repro.exec import (
    COMPLETED,
    QUARANTINED,
    SKIPPED,
    Campaign,
    CampaignError,
    CampaignOptions,
    make_task,
    retry_delay,
    run_campaign,
)

DEMO_FN = "repro.exec.tasks:demo_task"
CHAOS_FN = "repro.exec.tasks:chaos_task"


def demo_campaign(n=4, name="demo"):
    return Campaign(
        name=name, fn=DEMO_FN,
        tasks=[make_task({"x": float(i)}, label=f"square {i}")
               for i in range(n)],
    )


def chaos_campaign(scratch, kinds, name="inline-chaos"):
    tasks = [
        make_task({"index": i, "fault": kind, "scratch": str(scratch)},
                  label=f"fault:{kind}" if kind else f"healthy {i}")
        for i, kind in enumerate(kinds)
    ]
    return Campaign(name=name, fn=CHAOS_FN, tasks=tasks)


class TestOptions:
    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError, match="workers"):
            CampaignOptions(workers=-1)

    def test_negative_retries_rejected(self):
        with pytest.raises(ReproError, match="max_retries"):
            CampaignOptions(max_retries=-1)


class TestRetryDelay:
    def test_deterministic_per_task_and_attempt(self):
        opts = CampaignOptions()
        assert retry_delay(opts, "tid", 1) == retry_delay(opts, "tid", 1)
        assert retry_delay(opts, "tid", 1) != retry_delay(opts, "other", 1)

    def test_jitter_bounded(self):
        opts = CampaignOptions(backoff_base=0.25, backoff_cap=5.0)
        delay = retry_delay(opts, "tid", 1)
        assert 0.125 <= delay < 0.375    # base * [0.5, 1.5)

    def test_backoff_grows_and_caps(self):
        opts = CampaignOptions(backoff_base=0.25, backoff_cap=5.0)
        assert retry_delay(opts, "tid", 20) <= opts.backoff_cap


class TestInline:
    OPTS = dict(workers=0)

    def test_completes_all(self):
        result = run_campaign(demo_campaign(),
                              options=CampaignOptions(**self.OPTS))
        assert result.counts() == {COMPLETED: 4, SKIPPED: 0, QUARANTINED: 0}
        assert sorted(o.result["y"] for o in result.completed) == \
            [0.0, 1.0, 4.0, 9.0]
        assert not result.interrupted

    def test_analysis_error_recorded_and_skipped(self, tmp_path):
        """A deterministic solver failure is skipped, never retried."""
        campaign = chaos_campaign(tmp_path, ["conv_skip", None])
        result = run_campaign(campaign,
                              options=CampaignOptions(**self.OPTS))
        (skipped,) = result.skipped
        assert skipped.attempts == 1
        assert skipped.skip["error_type"] == "ConvergenceError"
        assert len(result.completed) == 1

    def test_poison_task_quarantined_immediately(self, tmp_path):
        campaign = chaos_campaign(tmp_path, ["task_error", None])
        result = run_campaign(campaign,
                              options=CampaignOptions(**self.OPTS))
        (poisoned,) = result.quarantined
        assert poisoned.attempts == 1
        assert poisoned.failures[-1]["kind"] == "poison"
        assert "RuntimeError" in poisoned.failures[-1]["detail"]
        assert len(result.completed) == 1

    def test_bad_fn_reference_fails_fast(self):
        campaign = Campaign(name="bad", fn="repro.exec.tasks:no_such_fn",
                            tasks=[make_task({"x": 1.0})])
        with pytest.raises(CampaignError, match="callable"):
            run_campaign(campaign, options=CampaignOptions(**self.OPTS))

    def test_forensics_dumped_on_quarantine(self, tmp_path):
        campaign = chaos_campaign(tmp_path, ["task_error"])
        forensics = tmp_path / "forensics"
        run_campaign(campaign, options=CampaignOptions(
            workers=0, forensics_dir=forensics))
        (dump,) = forensics.glob("*.json")
        payload = json.loads(dump.read_text())
        assert payload["kind"] == "task_failure"
        assert payload["status"] == QUARANTINED


class TestPooled:
    """Spawn-worker pool; kept small because each worker pays an import."""

    def test_parallel_matches_inline(self):
        campaign = demo_campaign(n=6, name="pooled-demo")
        inline = run_campaign(campaign, options=CampaignOptions(workers=0))
        pooled = run_campaign(campaign, options=CampaignOptions(workers=2))
        assert pooled.results() == inline.results()
        assert pooled.counts()[COMPLETED] == 6

    @pytest.mark.parametrize("doomed, completed", [((0, 1), 0), ((0,), 4)])
    def test_worker_dying_at_startup_charges_no_task(self, monkeypatch,
                                                     doomed, completed):
        """A worker that dies before it is ready (here its task function
        cannot be imported) is the pool's fault: no task is retried or
        quarantined, no worker replaces it, a live worker finishes the
        queue, and with none left the rest stays for the caller."""
        from repro.exec import executor

        spawned = []
        spawn = executor._spawn_worker

        def spawn_some_doomed(ctx, worker_id, fn_ref):
            spawned.append(worker_id)
            if worker_id in doomed:
                fn_ref = "repro.exec.no_such_module:fn"
            return spawn(ctx, worker_id, fn_ref)

        monkeypatch.setattr(executor, "_spawn_worker", spawn_some_doomed)
        campaign = demo_campaign(n=4, name="doomed-pool")
        result = run_campaign(campaign, options=CampaignOptions(workers=2))
        assert spawned == [0, 1]
        assert result.counts() == {COMPLETED: completed, SKIPPED: 0,
                                   QUARANTINED: 0}
        assert result.retries == 0
        assert len(result.remaining) == 4 - completed
        assert result.pool_error in {
            f"worker {w} died before it was ready, exit code 1"
            for w in doomed}
        assert (f"{4 - completed} not executed after the pool stopped"
                in result.summary())

    def test_flaky_crash_retried_to_completion(self, tmp_path):
        """A worker crash consumes a retry, not the campaign."""
        campaign = chaos_campaign(tmp_path, ["flaky_crash"], name="flaky")
        result = run_campaign(campaign, options=CampaignOptions(
            workers=1, max_retries=2, backoff_base=0.05, backoff_cap=0.2))
        (outcome,) = result.completed
        assert outcome.attempts == 2
        assert outcome.failures[0]["kind"] == "crash"


class TestInlineMatchesPooled:
    """Inline and pooled runs classify a task's end with one function,
    so they record the same outcome."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_skip_index_is_task_position(self, tmp_path, workers):
        campaign = chaos_campaign(tmp_path, [None, None, "conv_skip"],
                                  name="skip-index")
        result = run_campaign(campaign,
                              options=CampaignOptions(workers=workers))
        (skipped,) = result.skipped
        assert skipped.attempts == 1
        assert skipped.skip["index"] == 2
        assert skipped.skip["label"] == "fault:conv_skip"

    @pytest.mark.parametrize("workers", [0, 1])
    def test_non_json_result_is_poison(self, workers):
        # ``set(params)`` returns the set of the param names, which JSON
        # cannot encode.
        campaign = Campaign(name="non-json", fn="builtins:set",
                            tasks=[make_task({"x": 1.0})])
        result = run_campaign(campaign,
                              options=CampaignOptions(workers=workers))
        (poisoned,) = result.quarantined
        assert poisoned.attempts == 1
        assert poisoned.failures[-1]["kind"] == "poison"
        assert "not JSON serializable" in poisoned.failures[-1]["detail"]
        assert not result.completed
