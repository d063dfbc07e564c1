"""Campaign-executor overhead and speedup benches.

The executor's contract is "cheap when you don't need it": routing a
sweep through the campaign machinery inline (``workers=0``) must cost
within a few percent of the plain serial loop, because the engine adds
only classification, journaling hooks and bookkeeping around each task.
With real spawn workers the fixed cost is the per-worker interpreter
start + import (~1 s), so parallel pays off once the work dwarfs the
warmup — measured here on a small Fig. 7-style characterisation sweep.
"""

import time

from repro.cells import PowerDomain
from repro.characterize.variability import (
    VariationModel,
    _store_margins,
    store_yield_analysis,
    store_yield_campaign,
)
from repro.exec import CampaignOptions, run_campaign
from repro.pg.modes import OperatingConditions

COND = OperatingConditions()
DOMAIN = PowerDomain(64, 32)
N_SAMPLES = 12
SEED = 2015
VARIATION = VariationModel()


def _serial_loop():
    """The pre-campaign baseline: a bare loop over the MC samples, each
    through the per-sample entry the campaign task calls."""
    return [
        float(_store_margins(COND, DOMAIN, VARIATION, SEED, [i])[0][0])
        for i in range(N_SAMPLES)
    ]


def bench_serial_loop(benchmark):
    """Baseline: the plain serial Monte-Carlo loop."""
    margins = benchmark(_serial_loop)
    assert len(margins) == N_SAMPLES


def bench_inline_campaign(benchmark):
    """Same sweep through the executor inline; overhead target < 5 %."""
    campaign = store_yield_campaign(COND, DOMAIN, n_samples=N_SAMPLES,
                                    seed=SEED)
    result = benchmark(
        lambda: run_campaign(campaign, options=CampaignOptions(workers=0)))
    assert result.counts()["completed"] == N_SAMPLES


def bench_parallel_campaign(benchmark):
    """Two spawn workers on the same sweep: the fixed isolation cost.

    On a warm-cache 12-sample sweep the per-worker spawn warmup
    (interpreter start + imports) dominates, so this bench
    measures the price of process isolation, not a speedup —
    :func:`bench_parallel_speedup` covers the work-dominated regime.
    """
    result = benchmark(
        lambda: store_yield_analysis(COND, DOMAIN, n_samples=N_SAMPLES,
                                     seed=SEED, workers=2))
    assert result.n_failed == 0


def bench_parallel_speedup(capsys):
    """Work-dominated sweep: 2 workers must beat the serial wall-clock.

    12 tasks x 0.5 s each give the workers enough work to amortise
    their spawn warmup; anything short of a real speedup here means the
    pool is serialising.
    """
    from repro.exec.registry import build_campaign

    campaign = build_campaign("demo", tasks=12, work=0.5)
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

    Single-run jitter on this ~60 ms workload (GC, scheduler) is far
    larger than the executor's true per-task cost, so serial and inline
    runs are interleaved and compared on their best-of-N floors.
    """
    campaign = store_yield_campaign(COND, DOMAIN, n_samples=N_SAMPLES,
                                    seed=SEED)
    _serial_loop()  # warm the solver caches before timing anything
    serial, t_serial = _timed(_serial_loop)
    inline, t_inline = _timed(
        lambda: run_campaign(campaign, options=CampaignOptions(workers=0)))
    for _ in range(4):
        _, dt = _timed(_serial_loop)
        t_serial = min(t_serial, dt)
        _, dt = _timed(
            lambda: run_campaign(campaign, options=CampaignOptions(workers=0)))
        t_inline = min(t_inline, dt)

    t0 = time.perf_counter()
    parallel = store_yield_analysis(COND, DOMAIN, n_samples=N_SAMPLES,
                                    seed=SEED, workers=2)
    t_parallel = time.perf_counter() - t0

    overhead = (t_inline - t_serial) / t_serial
    with capsys.disabled():
        print(f"\ncampaign executor, {N_SAMPLES}-sample store-yield sweep:")
        print(f"  serial loop:      {t_serial:8.3f} s")
        print(f"  inline campaign:  {t_inline:8.3f} s "
              f"({overhead:+.1%} vs serial)")
        print(f"  2 spawn workers:  {t_parallel:8.3f} s "
              f"({t_serial / t_parallel:.2f}x speedup incl. warmup)")

    # the executor itself must stay in the noise at workers=0 (the 5 %
    # target leaves headroom for timer jitter on a loaded CI box)
    assert overhead < 0.05, f"inline campaign overhead {overhead:.1%}"
    assert inline.counts()["completed"] == N_SAMPLES
    # bit-identical results regardless of the execution strategy
    assert list(parallel.margins) == serial
