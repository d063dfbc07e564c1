"""Executor chaos harness: N tasks in, N classified outcomes out."""

import pytest

from repro.recovery import render_failure
from repro.recovery.faults import (
    EXEC_FAULT_EXPECTED,
    EXEC_FAULT_KINDS,
    build_executor_chaos_campaign,
    chaos_executor,
)

#: Fault kinds that are safe to execute inline (no worker to sacrifice:
#: a crash fault would take the test process down with it).
INLINE_SAFE = ("task_error", "conv_skip", "slow_task")


class TestCampaignBuilder:
    def test_one_task_per_fault_plus_healthy(self, tmp_path):
        campaign = build_executor_chaos_campaign(tmp_path, n_healthy=3)
        assert len(campaign) == len(EXEC_FAULT_KINDS) + 3
        faults = [t.params.get("fault") for t in campaign.tasks]
        for kind in EXEC_FAULT_KINDS:
            assert kind in faults

    def test_scratch_namespaces_the_key(self, tmp_path):
        a = build_executor_chaos_campaign(tmp_path / "a")
        b = build_executor_chaos_campaign(tmp_path / "b")
        assert a.key != b.key

    def test_only_the_hang_carries_its_own_watchdog(self, tmp_path):
        """The hung task is killed after 1 s from its start, not after
        the campaign-wide ``task_timeout`` the other tasks keep."""
        campaign = build_executor_chaos_campaign(tmp_path, n_healthy=1)
        timeouts = {t.params.get("fault"): t.timeout
                    for t in campaign.tasks}
        assert timeouts.pop("worker_hang") == 1.0
        assert set(timeouts.values()) == {None}

    def test_every_kind_has_an_expectation(self):
        for kind in EXEC_FAULT_KINDS:
            assert kind in EXEC_FAULT_EXPECTED


class TestInlineChaos:
    def test_classification_audit(self, tmp_path):
        """The inline-safe slice of the matrix, cheap enough for tier 1."""
        report = chaos_executor(tmp_path, n_healthy=2, workers=0,
                                kinds=INLINE_SAFE, task_timeout=None)
        assert report["ok"], render_failure(report)
        assert report["n_in"] == report["n_out"] == len(INLINE_SAFE) + 2
        assert report["counts"]["skipped"] == 1       # conv_skip
        assert report["counts"]["quarantined"] == 1   # task_error

    def test_render_mentions_verdict(self, tmp_path):
        report = chaos_executor(tmp_path, n_healthy=1, workers=0,
                                kinds=("conv_skip",), task_timeout=None)
        text = render_failure(report)
        assert "PASS" in text
        assert "conv_skip" in text


@pytest.mark.stress
class TestFullChaosMatrix:
    def test_all_faults_classified_with_spawn_workers(self, tmp_path):
        """The full matrix: crash, hang, slow, flaky, poison, skip."""
        report = chaos_executor(tmp_path, n_healthy=2, workers=2,
                                task_timeout=5.0, max_retries=1)
        assert report["ok"], render_failure(report)
        n = len(EXEC_FAULT_KINDS) + 2
        assert report["n_in"] == report["n_out"] == n
        by_label = {row["name"]: row for row in report["records"]}
        assert by_label["fault:flaky_crash"]["attempts"] >= 2
        assert by_label["fault:worker_hang"]["actual"] == "quarantined"
