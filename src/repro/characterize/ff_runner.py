"""NV flip-flop characterisation.

The register-file counterpart of :mod:`repro.characterize.runner`:
transient testbenches extract the NV-FF's clocking energy, delays,
static powers and store/restore costs, which
:class:`repro.pg.registers.RegisterBankModel` composes into
register-state power-gating figures (BET of a flip-flop bank).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..errors import CharacterizationError
from ..analysis import operating_point, transient
from ..analysis.transient import TransientOptions
from ..circuit import (
    Circuit,
    PiecewiseLinear,
    Pulse,
    Step,
    VoltageSource,
)
from ..cells import add_nvff, add_power_switch
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import OperatingConditions
from . import cache
from .cache import CellPoint
from .data import FlipFlopCharacterization

#: Sources whose delivered energy constitutes the FF energy.
FF_SUPPLY_SOURCES = ("vdd", "vclk", "vd", "vctrl")

#: Power-switch width for a flip-flop (16 transistors vs 6-8 in a cell).
FF_NFSW = 14


def _build_ff_bench(cond: OperatingConditions,
                    nfet: FinFETParams, pfet: FinFETParams,
                    mtj_params: MTJParams):
    c = Circuit("nvff-characterisation")
    c.add(VoltageSource("vdd", "rail", "0", dc=cond.vdd))
    c.add(VoltageSource("vpg", "pg", "0", dc=0.0))
    add_power_switch(c, "psw", "rail", "vvdd", "pg", nfsw=FF_NFSW,
                     pfet=pfet)
    c.add(VoltageSource("vclk", "clk", "0", dc=0.0))
    c.add(VoltageSource("vd", "d", "0", dc=0.0))
    c.add(VoltageSource("vsr", "sr", "0", dc=0.0))
    c.add(VoltageSource("vctrl", "ctrl", "0", dc=cond.v_ctrl_normal))
    ff = add_nvff(c, "ff", "d", "clk", "vvdd", "sr", "ctrl",
                  nfet=nfet, pfet=pfet, mtj_params=mtj_params)
    return c, ff


def characterize_nvff(
    cond: Optional[OperatingConditions] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    cache_dir: "Optional[Path] | str" = "auto",
) -> FlipFlopCharacterization:
    """Characterise the NV-FF under ``cond``.

    Runs: clocked-toggle and clocked-hold transients (per-cycle energy,
    clk-to-Q delay), static operating points (normal and super-cutoff
    shutdown), a two-step store and a collapsed-rail restore.  The bench
    netlist is statically analysed first (:func:`repro.verify.assert_clean`;
    ``REPRO_LINT=0`` disables it); error findings raise
    :class:`~repro.errors.VerificationError`.  It is cached under its
    ``"nvff"`` :class:`~repro.characterize.cache.CellPoint`.
    """
    point = CellPoint("nvff", cond, None, nfet, pfet, mtj_params)
    return cache.characterized(point, cache_dir, _extract_nvff)


def _extract_nvff(point: CellPoint) -> FlipFlopCharacterization:
    cond = point.cond
    devices = (point.nfet, point.pfet, point.mtj)
    result = FlipFlopCharacterization(
        vdd=cond.vdd, clock_frequency=cond.frequency,
    )
    from ..verify import assert_clean
    bench, _ = _build_ff_bench(cond, *devices)
    assert_clean(bench, target="cell:nvff")
    _extract_static(cond, *devices, result)
    _extract_clocking(cond, *devices, result)
    _extract_store(cond, *devices, result)
    _extract_restore(cond, *devices, result)
    return result


def _supply_power(circuit, sol) -> float:
    return sum(circuit[name].delivered_power(sol)
               for name in FF_SUPPLY_SOURCES)


def _extract_static(cond, nfet, pfet, mtj_params,
                    out: FlipFlopCharacterization) -> None:
    c, ff = _build_ff_bench(cond, nfet, pfet, mtj_params)
    ic = dict(ff.initial_conditions(True, cond.vdd))
    ic["vvdd"] = cond.vdd
    sol = operating_point(c, ic=ic)
    out.p_normal = max(_supply_power(c, sol), 0.0)

    c2, _ = _build_ff_bench(cond, nfet, pfet, mtj_params)
    c2["vpg"].set_level(cond.v_pg_super)
    c2["vctrl"].set_level(0.0)
    sol = operating_point(c2)
    out.p_shutdown = max(_supply_power(c2, sol), 0.0)


def _clock_run(cond, nfet, pfet, mtj_params, toggle: bool):
    """Four clock cycles; D toggles each cycle or stays constant."""
    t_clk = cond.t_cycle
    cycles = 5
    c, ff = _build_ff_bench(cond, nfet, pfet, mtj_params)
    c["vclk"].set_waveform(Pulse(
        0.0, cond.vdd, delay=0.5 * t_clk, rise=50e-12, fall=50e-12,
        width=0.45 * t_clk, period=t_clk,
    ))
    if toggle:
        # D flips a quarter period before each rising edge.
        points = [(0.0, cond.vdd)]
        level = cond.vdd
        for k in range(1, cycles + 1):
            t = (k + 0.15) * t_clk
            level = 0.0 if level else cond.vdd
            points.append((t, points[-1][1]))
            points.append((t + 100e-12, level))
        c["vd"].set_waveform(PiecewiseLinear(points))
    else:
        c["vd"].set_level(cond.vdd)
    ic = dict(ff.initial_conditions(True, cond.vdd))
    ic["vvdd"] = cond.vdd
    result = transient(c, (cycles + 0.4) * t_clk, ic=ic,
                       options=TransientOptions(dt_initial=20e-12))
    return c, ff, result


def _extract_clocking(cond, nfet, pfet, mtj_params,
                      out: FlipFlopCharacterization) -> None:
    t_clk = cond.t_cycle
    # Steady-state cycle window: the fourth clock period.
    window = (3.5 * t_clk, 4.5 * t_clk)

    c, ff, res = _clock_run(cond, nfet, pfet, mtj_params, toggle=True)
    out.e_clock_toggle = res.energy(FF_SUPPLY_SOURCES, *window)
    # clk-to-Q: the rising edge in that window latches new data.
    edge = 3.5 * t_clk
    q_before = res.sample(ff.q, edge - 0.1 * t_clk)
    direction = "rise" if q_before < cond.vdd / 2 else "fall"
    crossing = res.crossing_time(ff.q, cond.vdd / 2, direction,
                                 after=edge)
    if crossing is None or crossing > edge + t_clk:
        raise CharacterizationError("NV-FF did not latch on the edge")
    out.clk_to_q_delay = crossing - edge

    c, ff, res = _clock_run(cond, nfet, pfet, mtj_params, toggle=False)
    out.e_clock_hold = res.energy(FF_SUPPLY_SOURCES, *window)
    if not ff.read_q(res.final_solution(), cond.vdd):
        raise CharacterizationError("NV-FF lost constant data")


def _extract_store(cond, nfet, pfet, mtj_params,
                   out: FlipFlopCharacterization) -> None:
    c, ff = _build_ff_bench(cond, nfet, pfet, mtj_params)
    c["vsr"].set_waveform(Step(0.0, cond.v_sr, 1e-9, 100e-12))
    c["vctrl"].set_waveform(
        Step(0.0, cond.v_ctrl_store, 1e-9 + cond.t_store_step, 100e-12)
    )
    ff.set_mtj_data(c, False)    # must flip both junctions
    ic = dict(ff.initial_conditions(True, cond.vdd))
    ic["vvdd"] = cond.vdd
    total = 1e-9 + cond.t_store + 1e-9
    res = transient(c, total, ic=ic,
                    options=TransientOptions(dt_initial=20e-12))
    out.e_store = res.energy(FF_SUPPLY_SOURCES, 1e-9, 1e-9 + cond.t_store)
    out.t_store = cond.t_store
    out.store_events = len(res.events)
    if ff.stored_data(c) is not True:
        raise CharacterizationError("NV-FF store did not encode the data")


def _extract_restore(cond, nfet, pfet, mtj_params,
                     out: FlipFlopCharacterization) -> None:
    c, ff = _build_ff_bench(cond, nfet, pfet, mtj_params)
    c["vpg"].set_waveform(Step(cond.v_pg_super, 0.0, 1e-9, 200e-12))
    c["vsr"].set_level(cond.v_sr)
    c["vctrl"].set_level(0.0)
    ff.set_mtj_data(c, True)
    ic = {"vvdd": 0.0, ff.q: 0.0, ff.s: 0.0, ff.s3: 0.0,
          f"{ff.name}.m1": 0.0, f"{ff.name}.m2": 0.0}
    t_window = 1e-9 + cond.t_restore + 4e-9
    res = transient(c, t_window, ic=ic,
                    options=TransientOptions(dt_initial=20e-12))
    out.e_restore = res.energy(FF_SUPPLY_SOURCES, 1e-9,
                               1e-9 + cond.t_restore + 2e-9)
    out.t_restore = cond.t_restore + 2e-9
    out.restore_ok = ff.read_q(res.final_solution(), cond.vdd)
