"""Interrupt semantics: SIGINT drains, journal survives, resume finishes.

The acceptance test for the campaign engine: a run killed mid-flight
must leave a valid journal, exit non-zero, and a ``--resume`` must
execute only the remaining points while producing the same aggregate
results as an uninterrupted run.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import (Campaign, CampaignInterrupted, CampaignOptions,
                        make_task, run_campaign)

SRC = Path(__file__).resolve().parents[2] / "src"

N_TASKS = 8
WORK = 0.3

#: The ``__main__`` guard is load-bearing: spawn workers re-import the
#: parent's main module, and an unguarded driver would recurse.
DRIVER = f"""\
import sys

from repro.exec import (Campaign, CampaignInterrupted, CampaignOptions,
                        make_task, run_campaign)

if __name__ == "__main__":
    tasks = [make_task({{"x": float(i), "work": {WORK}}}, label=f"t{{i}}")
             for i in range({N_TASKS})]
    campaign = Campaign(name="sigint-demo",
                        fn="repro.exec.tasks:demo_task", tasks=tasks)
    try:
        run_campaign(campaign, journal=sys.argv[1],
                     options=CampaignOptions(workers=1, resume=True,
                                             drain_grace=10.0))
    except CampaignInterrupted as exc:
        print(exc.result.summary())
        sys.exit(130)
    sys.exit(0)
"""


def _campaign():
    tasks = [make_task({"x": float(i), "work": WORK}, label=f"t{i}")
             for i in range(N_TASKS)]
    return Campaign(name="sigint-demo", fn="repro.exec.tasks:demo_task",
                    tasks=tasks)


def _task_end_count(path: Path) -> int:
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        count += record.get("kind") == "task_end"
    return count


def test_sigint_flushes_journal_and_resume_completes(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen(
        [sys.executable, str(driver), str(journal)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # let at least two tasks reach the journal, then interrupt
        deadline = time.time() + 120.0
        while time.time() < deadline and _task_end_count(journal) < 2:
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, (
            f"driver finished before it could be interrupted:\n"
            f"{proc.communicate()[0]}")
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # non-zero exit, and the drain summary reached stdout
    assert proc.returncode == 130, out
    assert "INTERRUPTED" in out

    # the journal is valid JSONL with an interrupt record and a strict
    # subset of the task outcomes
    records = [json.loads(line)
               for line in journal.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert "campaign_begin" in kinds
    assert "campaign_interrupted" in kinds
    n_done = _task_end_count(journal)
    assert 2 <= n_done < N_TASKS

    # resume completes only the remaining points...
    resumed = run_campaign(_campaign(), journal=journal,
                           options=CampaignOptions(workers=0, resume=True))
    assert resumed.n_replayed == n_done
    executed = [o for o in resumed.completed if not o.replayed]
    assert len(executed) == N_TASKS - n_done

    # ...and the aggregate results are identical to an uninterrupted run
    reference = run_campaign(_campaign(),
                             options=CampaignOptions(workers=0))
    assert resumed.results() == reference.results()


def test_signal_handler_only_sets_a_flag(tmp_path, monkeypatch):
    """The pooled executor's SIGINT handler does nothing but set a flag.

    A Python signal handler runs between two bytecodes of whatever the
    main thread is doing, possibly in the middle of a buffered write, so
    any IO from it can fail with "reentrant call".  Here the handler
    fires the moment ``_run_pooled`` installs it, while stdout and
    stderr raise exactly that.  The install site swallows only
    ``OSError`` and ``ValueError``, so IO from the handler would escape
    as a ``RuntimeError``.  The main loop must then announce the drain
    itself, spawn no worker and journal the interruption.
    """
    from repro.exec import executor

    class Reentrant(io.TextIOBase):
        def write(self, text):
            raise RuntimeError("reentrant call")

        def flush(self):
            raise RuntimeError("reentrant call")

    fired = []

    def install_and_fire(signum, handler):
        if signum == signal.SIGINT and not fired:
            fired.append(handler)
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", Reentrant())
                patch.setattr(sys, "stderr", Reentrant())
                handler(signum, None)
        return signal.getsignal(signum)

    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned after SIGINT")

    monkeypatch.setattr(signal, "signal", install_and_fire)
    monkeypatch.setattr(executor, "_spawn_worker", no_spawn)
    journal = tmp_path / "campaign.jsonl"
    messages = []
    with pytest.raises(CampaignInterrupted, match="interrupted by SIGINT"):
        run_campaign(_campaign(), journal=journal,
                     options=CampaignOptions(workers=1,
                                             progress=messages.append))

    assert fired, "the executor installed no SIGINT handler"
    assert any(m.startswith("SIGINT: draining") for m in messages)
    records = [json.loads(line)
               for line in journal.read_text().splitlines()]
    assert [r["signal"] for r in records
            if r["kind"] == "campaign_interrupted"] == ["SIGINT"]
    assert not [r for r in records if r["kind"] == "task_end"]
