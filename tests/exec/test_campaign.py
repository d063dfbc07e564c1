"""Campaign data model: content addressing, task specs, outcomes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec import (
    COMPLETED,
    QUARANTINED,
    SKIPPED,
    Campaign,
    CampaignError,
    CampaignResult,
    TaskOutcome,
    make_task,
    resolve_task_fn,
    stable_hash,
)

DEMO_FN = "repro.exec.tasks:demo_task"


class TestStableHash:
    def test_deterministic(self):
        value = {"a": 1, "b": [2.5, "x"]}
        assert stable_hash(value) == stable_hash(dict(value))

    def test_key_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert stable_hash({"x": 2.0}) != stable_hash({"x": 3.0})

    def test_length(self):
        assert len(stable_hash({"x": 1}, length=24)) == 24


class TestTaskSpec:
    def test_content_derived_id(self):
        a = make_task({"x": 1.0})
        b = make_task({"x": 1.0}, label="different label")
        assert a.task_id == b.task_id

    def test_different_params_different_id(self):
        assert make_task({"x": 1.0}).task_id != make_task({"x": 2.0}).task_id

    def test_explicit_id_wins(self):
        assert make_task({"x": 1.0}, task_id="tid").task_id == "tid"

    def test_non_json_params_rejected(self):
        with pytest.raises(CampaignError, match="JSON"):
            make_task({"x": object()})


class TestCampaign:
    def _campaign(self, n=3):
        return Campaign(name="demo", fn=DEMO_FN,
                        tasks=[make_task({"x": float(i)}) for i in range(n)])

    def test_len_and_lookup(self):
        c = self._campaign()
        assert len(c) == 3
        tid = c.tasks[1].task_id
        assert c.task(tid).params == {"x": 1.0}
        with pytest.raises(CampaignError, match="no task"):
            c.task("nope")

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            Campaign(name="dup", fn=DEMO_FN,
                     tasks=[make_task({"x": 1.0}), make_task({"x": 1.0})])

    def test_key_is_stable(self):
        assert self._campaign().key == self._campaign().key

    def test_key_tracks_definition(self):
        base = self._campaign()
        renamed = Campaign(name="other", fn=base.fn, tasks=base.tasks)
        fewer = Campaign(name=base.name, fn=base.fn, tasks=base.tasks[:-1])
        assert len({base.key, renamed.key, fewer.key}) == 3

    def test_resolve_fn(self):
        fn = self._campaign().resolve_fn()
        assert fn({"x": 3.0})["y"] == 9.0


class TestResolveTaskFn:
    def test_bad_shape(self):
        with pytest.raises(CampaignError, match="pkg.mod:fn"):
            resolve_task_fn("no-colon-here")

    def test_unknown_module(self):
        with pytest.raises(CampaignError, match="cannot import"):
            resolve_task_fn("repro.no_such_module:fn")

    def test_not_callable(self):
        with pytest.raises(CampaignError, match="callable"):
            resolve_task_fn("repro.exec.tasks:__doc__")

    def test_characterize_task_loads_the_runner_on_resolve(self):
        """A worker sets ``ready`` once it has resolved its task function,
        and the watchdog's warm-up grace covers only what runs before
        that: the characterization imports must not wait for the first
        task."""
        src = Path(repro.__file__).resolve().parents[1]
        script = ("import sys\n"
                  "from repro.exec.campaign import resolve_task_fn\n"
                  "resolve_task_fn('repro.exec.tasks:characterize_task')\n"
                  "print('repro.characterize.runner' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]


class TestTaskOutcome:
    def test_round_trip(self):
        """``to_dict`` is the forensics payload: JSON with every field."""
        import json

        outcome = TaskOutcome(task_id="t1", status=QUARANTINED, attempts=3,
                              elapsed=1.5, label="point 1",
                              failures=[{"kind": "crash", "detail": "x"}])
        back = json.loads(json.dumps(outcome.to_dict()))
        assert back == {"task_id": "t1", "status": QUARANTINED,
                        "attempts": 3, "elapsed": 1.5, "label": "point 1",
                        "result": None, "skip": None,
                        "failures": [{"kind": "crash", "detail": "x"}]}


class TestCampaignResult:
    def _result(self):
        outcomes = {
            "a": TaskOutcome(task_id="a", status=COMPLETED,
                             elapsed=12.5, result={"y": 1.0}),
            "b": TaskOutcome(task_id="b", status=SKIPPED, elapsed=7.1,
                             skip={"error_type": "ConvergenceError",
                                   "reason": "no"}),
            "c": TaskOutcome(task_id="c", status=QUARANTINED, attempts=3,
                             failures=[{"kind": "timeout", "detail": "t"}]),
        }
        return CampaignResult(campaign="demo", key="k" * 24,
                              outcomes=outcomes,
                              order=["a", "b", "c", "d"], interrupted=True,
                              elapsed=10.44)

    def test_counts_and_views(self):
        result = self._result()
        assert result.counts() == {COMPLETED: 1, SKIPPED: 1, QUARANTINED: 1}
        assert [o.task_id for o in result.completed] == ["a"]
        assert result.remaining == ["d"]
        assert result.retries == 2
        assert result.results() == {"a": {"y": 1.0}}

    def test_summary_and_render(self):
        result = self._result()
        summary = result.summary()
        assert "1/4 completed" in summary
        assert "INTERRUPTED" in summary
        # campaign wall time, then the summed time of its tasks
        assert "completed in 10.4 s (19.6 s of task time)" in summary
        rendered = result.render()
        assert "quarantined" in rendered
        assert "not executed: 1 task(s)" in rendered
        assert "--resume" not in rendered

    def test_to_dict_is_json_able(self):
        import json

        payload = self._result().to_dict()
        assert payload["kind"] == "campaign_result"
        json.dumps(payload)
