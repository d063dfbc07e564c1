"""Simulator-engine performance benches.

Times the primitives everything else is built from, so regressions in
the MNA/Newton/transient stack are visible independent of the physics.

``bench_trust_certification_overhead`` additionally measures what the
numerical-trust layer (:mod:`repro.analysis.trust`) costs on *clean*
solves — certified vs uncertified operating point and transient — and
writes the split to ``BENCH_engine.json`` at the repo root, so the
"certification is ≈free" claim is a tracked artefact, not an anecdote.
The same file records the steps of each transient and the Newton
iterations of one cold ``nv`` characterization, so a change to what a
characterization simulates shows in a committed count.
"""

import json
import math
from pathlib import Path
from time import process_time

import numpy as np

from repro.exec.atomicio import atomic_write_text
from repro.analysis import operating_point, transient
from repro.analysis.dc import OperatingPointOptions
from repro.analysis.solver import NewtonOptions
from repro.analysis.transient import TransientOptions
from repro.analysis.trust import TrustOptions
from repro.characterize import testbench
from repro.characterize.runner import characterize_cell
from repro.characterize.testbench import build_cell_testbench
from repro.cells import PowerDomain
from repro.pg.modes import Mode, OperatingConditions
from repro.pg.scheduler import Schedule, ScheduleStep

_REPO = Path(__file__).resolve().parent.parent
DOMAIN = PowerDomain(512, 32)
COND = OperatingConditions()


def bench_operating_point_nv_cell(benchmark):
    tb = build_cell_testbench("nv", COND, DOMAIN)
    tb.apply_mode(Mode.STANDBY)
    ic = tb.initial_conditions(True)
    result = benchmark(lambda: operating_point(tb.circuit, ic=ic))
    assert result.voltage("vvdd") > 0.85


def bench_read_burst_transient(benchmark):
    def run():
        tb = build_cell_testbench("nv", COND, DOMAIN)
        schedule = Schedule(
            [ScheduleStep(Mode.STANDBY, COND.t_cycle),
             ScheduleStep(Mode.READ, COND.t_cycle),
             ScheduleStep(Mode.READ, COND.t_cycle)],
            COND,
        )
        tb.apply_waveforms(schedule.line_waveforms())
        return transient(tb.circuit, schedule.total_duration,
                         ic=tb.initial_conditions(True),
                         options=TransientOptions(dt_initial=20e-12))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) > 50


def bench_full_characterization_uncached(benchmark):
    """The end-to-end cost of characterising one NV cell from scratch."""
    result = benchmark.pedantic(
        lambda: characterize_cell("nv", COND, DOMAIN, cache_dir=None),
        rounds=1, iterations=1,
    )
    assert result.restore_ok


def _trust_op(certify):
    tb = build_cell_testbench("nv", COND, DOMAIN)
    tb.apply_mode(Mode.STANDBY)
    opts = OperatingPointOptions(
        newton=NewtonOptions(trust=TrustOptions(certify=certify)))
    return operating_point(tb.circuit, ic=tb.initial_conditions(True),
                           options=opts)


def _trust_tran(certify):
    tb = build_cell_testbench("nv", COND, DOMAIN)
    schedule = Schedule(
        [ScheduleStep(Mode.STANDBY, COND.t_cycle),
         ScheduleStep(Mode.READ, COND.t_cycle)],
        COND,
    )
    tb.apply_waveforms(schedule.line_waveforms())
    opts = TransientOptions(
        dt_initial=20e-12,
        newton=NewtonOptions(trust=TrustOptions(certify=certify)))
    return transient(tb.circuit, schedule.total_duration,
                     ic=tb.initial_conditions(True), options=opts)


def _median_paired_ratio(certified, plain, pairs):
    """Median certified/uncertified CPU-time ratio over ``pairs`` pairs.

    Each half is timed with the process's CPU clock, so time the host
    gives to other processes is not charged to it.  Each pair runs the
    two back to back, alternating which one goes first, so a drift in
    host speed hits both halves of a pair alike; the median then drops
    the pairs a scheduler hiccup landed in.  Returns the ratio and the
    median certified and uncertified times.
    """
    certified()                               # warm caches / JIT imports
    plain()
    ratios, t_cert, t_plain = [], [], []
    for k in range(pairs):
        runs = [(certified, t_cert), (plain, t_plain)]
        for fn, times in (runs if k % 2 == 0 else runs[::-1]):
            t0 = process_time()
            fn()
            times.append(process_time() - t0)
        ratios.append(t_cert[-1] / t_plain[-1])
    return (float(np.median(ratios)), float(np.median(t_cert)),
            float(np.median(t_plain)))


def _count_calls(fn, *targets):
    """``fn()`` and how many times it called each ``(owner, name)`` target.

    Counts calls of, e.g., ``numpy.linalg.inv``, the one O(n³)
    inversion per certified solve that the condest reuse exists to skip
    (made inside :mod:`repro.analysis.trust`, whichever of its functions
    asks for the condition number), or ``numpy.linalg.solve``, one per
    Newton iteration of a solve no defense re-solves.  Returns
    ``(result, count, ...)``.
    """
    counts = [0] * len(targets)
    originals = [getattr(owner, name) for owner, name in targets]

    def counter(k, real):
        def counted(*args, **kwargs):
            counts[k] += 1
            return real(*args, **kwargs)
        return counted

    try:
        for k, ((owner, name), real) in enumerate(zip(targets, originals)):
            setattr(owner, name, counter(k, real))
        result = fn()
    finally:
        for (owner, name), real in zip(targets, originals):
            setattr(owner, name, real)
    return (result, *counts)


#: The transients of an ``nv`` characterization, in the order it runs
#: them.
_TRANSIENT_PHASES = ("read", "write", "store", "restore")


def _characterization_counts():
    """Accepted and rejected steps of each transient, and the Newton
    iterations (``numpy.linalg.solve`` calls), of one cold
    ``characterize_cell("nv")`` at Table I and N = 512."""
    runs = []
    real = testbench.transient

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    testbench.transient = recorded
    try:
        _, iterations = _count_calls(
            lambda: characterize_cell("nv", COND, DOMAIN, cache_dir=None),
            (np.linalg, "solve"))
    finally:
        testbench.transient = real
    assert len(runs) == len(_TRANSIENT_PHASES)
    block = {"cell": "nv, Table I, N = 512, uncached"}
    for phase, run in zip(_TRANSIENT_PHASES, runs):
        block[phase] = {"accepted_steps": int(run.stats["accepted_steps"]),
                        "rejected_steps": int(run.stats["rejected_steps"])}
    block["newton_iterations"] = iterations
    return block


def bench_trust_certification_overhead(benchmark, publish):
    """Certified vs uncertified clean solves → ``BENCH_engine.json``.

    Clean solves (healthy NV-cell standby/read deck) must pay ≈0 for
    per-solve certification: the residual is one matvec and the
    condition estimate is cached across the slowly-varying transient
    systems (``_CONDEST_REUSE_RTOL`` in ``repro.analysis.trust``).
    The overheads are medians of paired ratios (see
    :func:`_median_paired_ratio`) and are written to
    ``BENCH_engine.json``; the timing assertion bounds the transient
    overhead loosely enough for CI noise.  The mechanism it guards is
    asserted exactly: the certified transient inverts at most one
    matrix in four of its certified solves.  The file also records the
    transient's Newton iterations (``numpy.linalg.solve`` calls) and its
    uncertified time per iteration, and the per-transient steps and
    Newton iterations of one cold ``nv`` characterization
    (:func:`_characterization_counts`).
    """
    op_ratio, op_cert, op_plain = _median_paired_ratio(
        lambda: _trust_op(True), lambda: _trust_op(False), pairs=9)
    tran_ratio, tran_cert, tran_plain = _median_paired_ratio(
        lambda: _trust_tran(True), lambda: _trust_tran(False), pairs=9)

    benchmark(lambda: _trust_tran(True))
    result, inversions, iterations = _count_calls(
        lambda: _trust_tran(True),
        (np.linalg, "inv"), (np.linalg, "solve"))
    assert math.isfinite(result.residual_norm)
    assert math.isfinite(result.cond_estimate)
    assert result.stats["defended_steps"] == 0, \
        "clean read-burst deck should not trigger conditioning defenses"
    certified = int(result.stats["certified_steps"])
    assert 4 * inversions <= certified, (
        f"{inversions} condition-number inversions over {certified} "
        "certified solves — condest reuse is not pulling its weight")

    def pct(ratio):
        return 100.0 * (ratio - 1.0)

    payload = {
        "schema": 1,
        "deck": "nv-cell standby+read (certified vs uncertified)",
        "operating_point": {
            "certified_ms": round(op_cert * 1e3, 4),
            "uncertified_ms": round(op_plain * 1e3, 4),
            "overhead_pct": round(pct(op_ratio), 1),
        },
        "read_burst_transient": {
            "certified_ms": round(tran_cert * 1e3, 4),
            "uncertified_ms": round(tran_plain * 1e3, 4),
            "overhead_pct": round(pct(tran_ratio), 1),
            "accepted_steps": int(result.stats["accepted_steps"]),
            "newton_iterations": iterations,
            "us_per_iteration": round(tran_plain * 1e6 / iterations, 2),
        },
        "certification": {
            "worst_residual_norm_a": float(result.residual_norm),
            "worst_cond_estimate": float(result.cond_estimate),
            "defended_steps": int(result.stats["defended_steps"]),
            "condest_inversions": inversions,
        },
        "characterization": _characterization_counts(),
    }
    atomic_write_text(_REPO / "BENCH_engine.json",
                      json.dumps(payload, indent=2) + "\n")
    publish("trust_overhead", json.dumps(payload, indent=2))

    assert pct(tran_ratio) < 25.0, (
        f"certification costs {pct(tran_ratio):.1f}% on the clean "
        "transient — condest caching is not pulling its weight")
