"""Interrupt semantics: SIGINT drains, and a rerun resumes from the cache.

A campaign killed mid-flight must drain its in-flight tasks, exit
non-zero and report the partial result.  For a figure prewarm the
characterization cache is the durable record of every finished point:
rerunning the same command simulates only the missing points and prints
exactly what an uninterrupted run prints.
"""

import io
import os
import re
import signal
import subprocess
import sys
import threading
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
        run_campaign(campaign, CampaignOptions(
            workers=1, drain_grace=10.0,
            progress=lambda message: print(message, flush=True)))
    except CampaignInterrupted as exc:
        print(exc.result.summary(), flush=True)
        sys.exit(130)
    sys.exit(0)
"""

#: The executor's progress line for one completed task.
COMPLETED_LINE = re.compile(rf"\[\d+/{N_TASKS}\] completed: ")

#: Fig. 7(b) prewarms seven domain depths for both cells.
FIG7B_TASKS = 14


def _campaign():
    tasks = [make_task({"x": float(i), "work": WORK}, label=f"t{i}")
             for i in range(N_TASKS)]
    return Campaign(name="sigint-demo", fn="repro.exec.tasks:demo_task",
                    tasks=tasks)


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _interrupt_when(proc, ready, timeout_s=120.0):
    """Send SIGINT once ``ready()`` holds; fail if ``proc`` exits first."""
    deadline = time.time() + timeout_s
    while time.time() < deadline and not ready():
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    assert proc.poll() is None, (
        "the process finished before it could be interrupted")
    proc.send_signal(signal.SIGINT)


def test_sigint_flushes_journal_and_resume_completes(tmp_path):
    """SIGINT mid-campaign: in-flight work drains, the driver exits 130
    with the summary, and only some of the tasks completed."""
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    proc = subprocess.Popen(
        [sys.executable, str(driver)], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = []

    def read():
        for line in proc.stdout:
            lines.append(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        # let at least two tasks complete, then interrupt
        _interrupt_when(proc, lambda: sum(
            bool(COMPLETED_LINE.match(line)) for line in lines) >= 2)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
    assert not reader.is_alive()
    out = "".join(lines)

    # non-zero exit, and the drain summary reached stdout
    assert proc.returncode == 130, out
    assert "INTERRUPTED" in out
    n_done = sum(bool(COMPLETED_LINE.match(line)) for line in lines)
    assert 2 <= n_done < N_TASKS, out


def test_interrupted_prewarm_resumes_from_the_cache(tmp_path):
    """``repro fig7b --workers 2`` interrupted after k of its 14 points:
    exit 130 with the campaign summary on stderr, and a rerun writes
    exactly the 14 - k missing cache entries and prints what an
    uninterrupted run from an empty cache prints."""
    command = [sys.executable, "-m", "repro", "fig7b", "--workers", "2"]
    reference = subprocess.run(
        command, env=_env(REPRO_CACHE_DIR=str(tmp_path / "reference")),
        capture_output=True, timeout=300)
    assert reference.returncode == 0, reference.stderr.decode()

    cache = tmp_path / "cache"
    env = _env(REPRO_CACHE_DIR=str(cache))
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _interrupt_when(proc, lambda: len(list(cache.glob("*.json"))) >= 2)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    assert "campaign 'fig7b'" in err and "INTERRUPTED" in err
    assert "rerun the same command" in err
    assert "Traceback" not in err
    assert out == ""

    finished = {path.name: path.stat() for path in cache.glob("*.json")}
    k = len(finished)
    assert 2 <= k < FIG7B_TASKS

    rerun = subprocess.run(command, env=env, capture_output=True,
                           timeout=300)
    assert rerun.returncode == 0, rerun.stderr.decode()
    assert rerun.stdout == reference.stdout
    entries = {path.name: path.stat() for path in cache.glob("*.json")}
    assert len(entries) == FIG7B_TASKS
    # an entry rewritten by the rerun would have a new inode (atomic
    # replace) and mtime: the k finished points were only read
    for name, stat in finished.items():
        assert (entries[name].st_ino, entries[name].st_mtime_ns) == \
            (stat.st_ino, stat.st_mtime_ns)


def test_signal_handler_only_sets_a_flag(monkeypatch):
    """The pooled executor's SIGINT handler does nothing but set a flag.

    A Python signal handler runs between two bytecodes of whatever the
    main thread is doing, possibly in the middle of a buffered write, so
    any IO from it can fail with "reentrant call".  Here the handler
    fires the moment ``_run_pooled`` installs it, while stdout and
    stderr raise exactly that.  The install site swallows only
    ``OSError`` and ``ValueError``, so IO from the handler would escape
    as a ``RuntimeError``.  The main loop must then announce the drain
    itself, spawn no worker and raise the empty partial result.
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
    messages = []
    with pytest.raises(CampaignInterrupted,
                       match="interrupted by SIGINT") as interrupted:
        run_campaign(_campaign(), CampaignOptions(
            workers=1, progress=messages.append))

    assert fired, "the executor installed no SIGINT handler"
    assert any(m.startswith("SIGINT: draining") for m in messages)
    result = interrupted.value.result
    assert result.interrupted and not result.outcomes
    assert len(result.remaining) == N_TASKS
