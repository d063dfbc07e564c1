"""Simulator-engine performance benches.

Times the primitives everything else is built from, so regressions in
the MNA/Newton/transient stack are visible independent of the physics.

``bench_trust_certification_overhead`` additionally measures what the
numerical-trust layer (:mod:`repro.analysis.trust`) costs on *clean*
solves — certified vs uncertified operating point and transient — and
writes the split to ``BENCH_engine.json`` at the repo root, so the
"certification is ≈free" claim is a tracked artefact, not an anecdote.
"""

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.exec.atomicio import atomic_write_text
from repro.analysis import operating_point, transient
from repro.analysis.dc import OperatingPointOptions
from repro.analysis.solver import NewtonOptions
from repro.analysis.transient import TransientOptions
from repro.analysis.trust import TrustOptions
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


def _best_of_alternating(fns, rounds):
    """Best time of each of ``fns`` over ``rounds`` alternating rounds.

    Every round runs each function once, so a drift in host speed hits
    all of them alike instead of whichever ran last.
    """
    for fn in fns:
        fn()                                  # warm caches / JIT imports
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for k, fn in enumerate(fns):
            t0 = perf_counter()
            fn()
            best[k] = min(best[k], perf_counter() - t0)
    return best


def bench_trust_certification_overhead(benchmark, publish):
    """Certified vs uncertified clean solves → ``BENCH_engine.json``.

    Clean solves (healthy NV-cell standby/read deck) must pay ≈0 for
    per-solve certification: the residual is one matvec and the
    condition estimate is cached across the slowly-varying transient
    systems (``_CONDEST_REUSE_RTOL`` in ``repro.analysis.trust``).
    Certified and uncertified runs alternate round by round, so both see
    the same host conditions.  The measured split is written to
    ``BENCH_engine.json``; the assertion bounds the transient overhead
    loosely enough for CI noise while still catching an accidental
    O(n³)-per-step regression.
    """
    op_cert, op_plain = _best_of_alternating(
        (lambda: _trust_op(True), lambda: _trust_op(False)), rounds=7)
    tran_cert, tran_plain = _best_of_alternating(
        (lambda: _trust_tran(True), lambda: _trust_tran(False)), rounds=3)

    result = benchmark(lambda: _trust_tran(True))
    assert math.isfinite(result.residual_norm)
    assert math.isfinite(result.cond_estimate)
    assert result.stats["defended_steps"] == 0, \
        "clean read-burst deck should not trigger conditioning defenses"

    def pct(certified, plain):
        return 100.0 * (certified / plain - 1.0) if plain > 0 else float("nan")

    payload = {
        "schema": 1,
        "deck": "nv-cell standby+read (certified vs uncertified)",
        "operating_point": {
            "certified_ms": round(op_cert * 1e3, 4),
            "uncertified_ms": round(op_plain * 1e3, 4),
            "overhead_pct": round(pct(op_cert, op_plain), 1),
        },
        "read_burst_transient": {
            "certified_ms": round(tran_cert * 1e3, 4),
            "uncertified_ms": round(tran_plain * 1e3, 4),
            "overhead_pct": round(pct(tran_cert, tran_plain), 1),
            "accepted_steps": int(result.stats["accepted_steps"]),
        },
        "certification": {
            "worst_residual_norm_a": float(result.residual_norm),
            "worst_cond_estimate": float(result.cond_estimate),
            "defended_steps": int(result.stats["defended_steps"]),
        },
    }
    atomic_write_text(_REPO / "BENCH_engine.json",
                      json.dumps(payload, indent=2) + "\n")
    publish("trust_overhead", json.dumps(payload, indent=2))

    assert pct(tran_cert, tran_plain) < 25.0, (
        f"certification costs {pct(tran_cert, tran_plain):.1f}% on the "
        "clean transient — condest caching is not pulling its weight")
