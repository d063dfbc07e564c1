"""Campaign-executor overhead and speedup benches.

The executor's contract is "cheap when you don't need it": routing a
task list through the campaign machinery inline (``workers=0``) must
cost within a few percent of the plain serial loop, because the engine
adds only classification and bookkeeping around each task.  With real
spawn workers the fixed cost is the per-worker interpreter start +
import (~1 s), so parallel pays off once the work dwarfs the warmup.

The workload is 12 ``demo_task`` tasks of 10 ms each: short enough that
per-task executor cost would show against the serial loop, about as
long as one small cell solve run as its own task.
"""

import time

from repro.exec import Campaign, CampaignOptions, make_task, run_campaign
from repro.exec.tasks import demo_task

DEMO_FN = "repro.exec.tasks:demo_task"
N_TASKS = 12
WORK_S = 0.01


def _demo_campaign(n_tasks: int, work: float) -> Campaign:
    tasks = [make_task({"x": float(i), "work": work}, label=f"square {i}")
             for i in range(n_tasks)]
    return Campaign(name="demo", fn=DEMO_FN, tasks=tasks)


CAMPAIGN = _demo_campaign(N_TASKS, WORK_S)


def _serial_loop():
    """The baseline: a bare loop calling the task function directly."""
    return [demo_task(task.params) for task in CAMPAIGN.tasks]


def _in_task_order(result):
    """A campaign result's payloads in task order."""
    results = result.results()
    return [results[task.task_id] for task in CAMPAIGN.tasks]


def bench_serial_loop(benchmark):
    """Baseline: the plain serial loop over the demo tasks."""
    results = benchmark(_serial_loop)
    assert len(results) == N_TASKS


def bench_inline_campaign(benchmark):
    """Same tasks through the executor inline; overhead target < 5 %."""
    result = benchmark(
        lambda: run_campaign(CAMPAIGN, options=CampaignOptions(workers=0)))
    assert result.counts()["completed"] == N_TASKS


def bench_parallel_campaign(benchmark):
    """Two spawn workers on the same tasks: the fixed isolation cost.

    On 12 tasks of 10 ms the per-worker spawn warmup (interpreter start
    + imports) dominates, so this bench measures the price of process
    isolation, not a speedup — :func:`bench_parallel_speedup` covers
    the work-dominated regime.
    """
    result = benchmark(
        lambda: run_campaign(CAMPAIGN, options=CampaignOptions(workers=2)))
    assert result.counts()["completed"] == N_TASKS


def bench_parallel_speedup(capsys):
    """Work-dominated campaign: 2 workers must beat the serial wall-clock.

    12 tasks x 0.5 s each give the workers enough work to amortise
    their spawn warmup; anything short of a real speedup here means the
    pool is serialising.
    """
    campaign = _demo_campaign(12, 0.5)
    inline, t_inline = _timed(
        lambda: run_campaign(campaign, options=CampaignOptions(workers=0)))
    parallel, t_parallel = _timed(
        lambda: run_campaign(campaign, options=CampaignOptions(workers=2)))

    assert inline.counts()["completed"] == 12
    assert parallel.counts()["completed"] == 12
    with capsys.disabled():
        print("\ndemo campaign, 12 tasks x 0.5 s:")
        print(f"  inline (workers=0): {t_inline:8.3f} s")
        print(f"  2 spawn workers:    {t_parallel:8.3f} s "
              f"({t_inline / t_parallel:.2f}x speedup incl. warmup)")
    assert t_parallel < t_inline, (
        f"no parallel speedup: {t_parallel:.2f}s vs {t_inline:.2f}s serial")


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def bench_overhead_report(capsys):
    """One-shot comparison table: serial vs inline vs 2 workers.

    Single-run jitter on this ~120 ms workload (sleep granularity, GC,
    scheduler) is far larger than the executor's true per-task cost, so
    serial and inline runs are interleaved and compared on their
    best-of-N floors.
    """
    serial, t_serial = _timed(_serial_loop)
    inline, t_inline = _timed(
        lambda: run_campaign(CAMPAIGN, options=CampaignOptions(workers=0)))
    for _ in range(4):
        _, dt = _timed(_serial_loop)
        t_serial = min(t_serial, dt)
        _, dt = _timed(
            lambda: run_campaign(CAMPAIGN, options=CampaignOptions(workers=0)))
        t_inline = min(t_inline, dt)

    parallel, t_parallel = _timed(
        lambda: run_campaign(CAMPAIGN, options=CampaignOptions(workers=2)))

    overhead = (t_inline - t_serial) / t_serial
    with capsys.disabled():
        print(f"\ncampaign executor, {N_TASKS} demo tasks x "
              f"{WORK_S * 1e3:g} ms:")
        print(f"  serial loop:      {t_serial:8.3f} s")
        print(f"  inline campaign:  {t_inline:8.3f} s "
              f"({overhead:+.1%} vs serial)")
        print(f"  2 spawn workers:  {t_parallel:8.3f} s "
              f"({t_serial / t_parallel:.2f}x speedup incl. warmup)")

    # the executor itself must stay in the noise at workers=0 (the 5 %
    # target leaves headroom for timer jitter on a loaded CI box)
    assert overhead < 0.05, f"inline campaign overhead {overhead:.1%}"
    assert inline.counts()["completed"] == N_TASKS
    # identical results regardless of the execution strategy
    assert _in_task_order(inline) == serial
    assert _in_task_order(parallel) == serial
