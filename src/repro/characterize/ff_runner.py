"""NV flip-flop characterisation.

The register-file counterpart of :mod:`repro.characterize.runner`:
transient testbenches extract the NV-FF's clocking energy, delays,
static powers and store/restore costs, which
:class:`repro.pg.registers.RegisterBankModel` composes into
register-state power-gating figures (BET of a flip-flop bank).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

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
from ..cells.nvff import NvFlipFlop
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import OperatingConditions
from ..exec.envelope import cache_root
from . import cache

#: Sources whose delivered energy constitutes the FF energy.
FF_SUPPLY_SOURCES = ("vdd", "vclk", "vd", "vctrl")

#: Power-switch width for a flip-flop (16 transistors vs 6-8 in a cell).
FF_NFSW = 14


@dataclass
class FlipFlopCharacterization:
    """Per-mode energies and delays of the NV-FF (joules / seconds).

    ``e_clock_toggle`` / ``e_clock_hold`` are per-clock-cycle energies
    with the data input toggling every cycle / held constant; real
    activity factors interpolate between them.
    """

    vdd: float
    clock_frequency: float
    e_clock_toggle: float = 0.0
    e_clock_hold: float = 0.0
    clk_to_q_delay: float = 0.0
    p_normal: float = 0.0
    p_shutdown: float = 0.0
    e_store: float = 0.0
    t_store: float = 0.0
    e_restore: float = 0.0
    t_restore: float = 0.0
    store_events: int = 0
    restore_ok: bool = True
    extras: Dict[str, float] = field(default_factory=dict)

    def e_clock(self, activity: float) -> float:
        """Per-cycle energy at a data activity factor in [0, 1]."""
        if not (0.0 <= activity <= 1.0):
            raise CharacterizationError("activity must be in [0, 1]")
        return (self.e_clock_hold
                + activity * (self.e_clock_toggle - self.e_clock_hold))

    def validate(self) -> None:
        checks = [
            ("e_clock_toggle", self.e_clock_toggle > 0),
            ("toggle >= hold", self.e_clock_toggle >= self.e_clock_hold),
            ("p_normal", self.p_normal > 0),
            ("shutdown < normal", self.p_shutdown < self.p_normal),
            ("e_store", self.e_store > 0),
            ("store switched both MTJs", self.store_events >= 2),
            ("restore recovered data", self.restore_ok),
            ("clk-q delay", 0 < self.clk_to_q_delay < 1.0 /
             self.clock_frequency),
        ]
        failed = [name for name, ok in checks if not ok]
        if failed:
            raise CharacterizationError(
                f"NV-FF characterisation failed sanity checks: {failed}"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FlipFlopCharacterization":
        return cls(**json.loads(text))


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


def nvff_cache_key(cond: OperatingConditions, nfet: FinFETParams,
                   pfet: FinFETParams, mtj_params: MTJParams) -> str:
    """Disk-cache key of one :func:`characterize_nvff` result."""
    return cache.cache_key(kind="nvff", cond=cond, nfet=nfet, pfet=pfet,
                           mtj=mtj_params)


def characterize_nvff(
    cond: Optional[OperatingConditions] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    cache_dir: "Optional[Path] | str" = "auto",
    validate: bool = True,
    lint: bool = True,
) -> FlipFlopCharacterization:
    """Characterise the NV-FF under ``cond``.

    Runs: clocked-toggle and clocked-hold transients (per-cycle energy,
    clk-to-Q delay), static operating points (normal and super-cutoff
    shutdown), a two-step store and a collapsed-rail restore.  With
    ``lint=True`` (default) the bench netlist is statically analysed
    first (:func:`repro.verify.assert_clean`); error findings raise
    :class:`~repro.errors.VerificationError`.
    """
    if cache_dir == "auto":
        cache_dir = cache_root()
    cond = cond or OperatingConditions()
    key = nvff_cache_key(cond, nfet, pfet, mtj_params)
    cached = cache.load(cache_dir, key, FlipFlopCharacterization)
    if cached is not None:
        return cached

    result = FlipFlopCharacterization(
        vdd=cond.vdd, clock_frequency=cond.frequency,
    )
    if lint:
        from ..verify import assert_clean
        bench, _ = _build_ff_bench(cond, nfet, pfet, mtj_params)
        assert_clean(bench, target="cell:nvff")
    _extract_static(cond, nfet, pfet, mtj_params, result)
    _extract_clocking(cond, nfet, pfet, mtj_params, result)
    _extract_store(cond, nfet, pfet, mtj_params, result)
    _extract_restore(cond, nfet, pfet, mtj_params, result)
    if validate:
        result.validate()
    cache.store(cache_dir, key, result)
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
