"""Full-cell characterisation: the SPICE-level extraction pass.

:func:`characterize_cell` produces the
:class:`~repro.characterize.data.CellCharacterization` consumed by the
Fig. 7-9 energy composition.  It runs:

1. DC operating points for the static power of every mode (normal /
   sleep / shutdown / super-cutoff shutdown);
2. a read-burst transient (energy of one steady-state read cycle plus
   the read delay);
3. a write-burst transient (ditto for writes);
4. a store transient (two-step store, MTJ switching verified, store
   currents measured against the 1.5 x Ic margin);
5. a restore transient from a fully collapsed rail (recall correctness
   verified, wake-up energy measured).

Results are cached on disk (see :mod:`repro.characterize.cache`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..analysis import operating_point, transient
from ..analysis.results import TransientResult
from ..analysis.transient import TransientOptions
from ..analysis.trust import TrustAccumulator
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJ, MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from ..pg.scheduler import PhaseWindow, Schedule, ScheduleStep
from ..exec.envelope import cache_root
from . import cache
from .data import CellCharacterization
from .testbench import SUPPLY_SOURCES, CellTestbench, build_cell_testbench

#: Bitline differential treated as a completed read (volts).
READ_SENSE_THRESHOLD = 0.10


def cell_cache_key(kind: str, cond: OperatingConditions,
                   domain: PowerDomain, nfet: FinFETParams,
                   pfet: FinFETParams, mtj_params: MTJParams) -> str:
    """Disk-cache key of one :func:`characterize_cell` result."""
    return cache.cache_key(kind=kind, cond=cond, domain=domain, nfet=nfet,
                           pfet=pfet, mtj=mtj_params)


def characterize_cell(
    kind: str,
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    cache_dir: "Optional[Path] | str" = "auto",
    validate: bool = True,
    lint: bool = True,
) -> CellCharacterization:
    """Characterise one cell flavour under the given conditions.

    Parameters
    ----------
    kind:
        ``"nv"`` or ``"6t"``.
    cache_dir:
        Directory for the JSON result cache; the default ``"auto"``
        resolves :func:`repro.exec.envelope.cache_root` (which honours
        ``REPRO_CACHE_DIR``) at call time; ``None`` disables caching.
    validate:
        Run the physical sanity checks on the result (recommended).
    lint:
        Statically analyse the testbench netlist before simulating
        (:func:`repro.verify.assert_clean`); error findings raise
        :class:`~repro.errors.VerificationError`.  ``REPRO_LINT=0``
        disables the check globally.
    """
    if cache_dir == "auto":
        cache_dir = cache_root()
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    key = cell_cache_key(kind, cond, domain, nfet, pfet, mtj_params)
    cached = cache.load(cache_dir, key)
    if cached is not None:
        return cached

    result = CellCharacterization(
        kind=kind,
        n_wordlines=domain.n_wordlines,
        vdd=cond.vdd,
        frequency=cond.frequency,
    )

    def fresh_tb() -> CellTestbench:
        return build_cell_testbench(kind, cond, domain, nfet=nfet,
                                    pfet=pfet, mtj_params=mtj_params)

    if lint:
        from ..verify import assert_clean
        assert_clean(fresh_tb().circuit, target=f"cell:{kind}")
    # Worst-case numerical-trust aggregate over every solve of the
    # extraction; travels with the cached result (see analysis.trust).
    trust = TrustAccumulator()
    _extract_static_powers(fresh_tb(), result, trust)
    _extract_read(fresh_tb(), result, trust)
    _extract_write(fresh_tb(), result, trust)
    if kind == "nv":
        _extract_store(fresh_tb(), result, trust)
        _extract_restore(fresh_tb(), result, trust)
    result.extras.update(trust.as_extras())
    if validate:
        result.validate()
    cache.store(cache_dir, key, result)
    return result


# ---------------------------------------------------------------------------
# static powers
# ---------------------------------------------------------------------------

def _static_power_of_mode(tb: CellTestbench, mode: Mode,
                          data: bool = True,
                          pg_override: Optional[float] = None,
                          trust: Optional[TrustAccumulator] = None) -> float:
    tb.apply_mode(mode)
    if pg_override is not None:
        tb.circuit["vpg"].set_level(pg_override)
    if mode is Mode.SHUTDOWN:
        ic = None  # the latch holds no state when powered off
    else:
        rail = tb.cond.v_sleep_rail if mode is Mode.SLEEP else tb.cond.vdd
        ic = tb.core.initial_conditions(data, rail)
        ic["vvdd"] = rail
    sol = operating_point(tb.circuit, ic=ic)
    if trust is not None:
        trust.note(sol)
    power = sum(
        tb.circuit[name].delivered_power(sol) for name in SUPPLY_SOURCES
    )
    return max(power, 0.0)


def _extract_static_powers(tb: CellTestbench, out: CellCharacterization,
                           trust: Optional[TrustAccumulator] = None) -> None:
    out.p_normal = _static_power_of_mode(tb, Mode.STANDBY, trust=trust)
    out.p_sleep = _static_power_of_mode(tb, Mode.SLEEP, trust=trust)
    if tb.kind == "nv":
        out.p_shutdown = _static_power_of_mode(tb, Mode.SHUTDOWN, trust=trust)
        out.p_shutdown_nominal = _static_power_of_mode(
            tb, Mode.SHUTDOWN, pg_override=tb.cond.vdd, trust=trust
        )
    else:
        # The volatile cell cannot shut down without losing data; its
        # "long inactive period" is spent in sleep.
        out.p_shutdown = out.p_sleep
        out.p_shutdown_nominal = out.p_sleep


# ---------------------------------------------------------------------------
# transient helpers
# ---------------------------------------------------------------------------

def _run_schedule(tb: CellTestbench, schedule: Schedule, data: bool,
                  mtj_data: Optional[bool] = None,
                  collapsed: bool = False,
                  trust: Optional[TrustAccumulator] = None) -> TransientResult:
    tb.apply_waveforms(schedule.line_waveforms())
    if tb.kind == "nv" and mtj_data is not None:
        tb.set_mtj_data(mtj_data)
    if collapsed:
        ic = {tb.core.q: 0.0, tb.core.qb: 0.0, "vvdd": 0.0}
    else:
        ic = tb.initial_conditions(data)
    options = TransientOptions(
        dt_initial=min(20e-12, tb.cond.t_cycle / 200.0),
        dt_max=schedule.total_duration / 40.0,
    )
    result = transient(tb.circuit, schedule.total_duration, ic=ic,
                       options=options)
    if trust is not None:
        trust.note(result)
    return result


def _window_energy(result: TransientResult, window: PhaseWindow,
                   t_extra: float = 0.0) -> float:
    return result.energy(SUPPLY_SOURCES, window.t_start,
                         window.t_end + t_extra)


# ---------------------------------------------------------------------------
# read / write
# ---------------------------------------------------------------------------

def _extract_read(tb: CellTestbench, out: CellCharacterization,
                  trust: Optional[TrustAccumulator] = None) -> None:
    cond = tb.cond
    t_cyc = cond.t_cycle
    schedule = Schedule(
        [
            ScheduleStep(Mode.STANDBY, 2 * t_cyc),
            ScheduleStep(Mode.READ, t_cyc),
            ScheduleStep(Mode.READ, t_cyc),
            ScheduleStep(Mode.READ, t_cyc),
            ScheduleStep(Mode.STANDBY, t_cyc),
        ],
        cond,
        volatile=tb.kind == "6t",
    )
    result = _run_schedule(tb, schedule, data=True, mtj_data=False,
                           trust=trust)
    window = schedule.windows_of(Mode.READ)[1]
    out.e_read = _window_energy(result, window)
    out.read_delay = _read_delay(result, tb, window)
    if not tb.core.read_data(result.final_solution(), cond.vdd):
        raise CharacterizationError("read disturbed the stored data")


def _read_delay(result: TransientResult, tb: CellTestbench,
                window: PhaseWindow) -> float:
    """Word-line assertion to READ_SENSE_THRESHOLD bitline differential."""
    t_wl = window.t_start + 0.45 * window.duration
    mask = (result.time >= t_wl) & (result.time <= window.t_end)
    diff = np.abs(result.differential(tb.core.bl, tb.core.blb))[mask]
    times = result.time[mask]
    above = np.nonzero(diff >= READ_SENSE_THRESHOLD)[0]
    if above.size == 0:
        raise CharacterizationError(
            "bitline differential never reached the sense threshold"
        )
    return float(times[above[0]] - t_wl)


def _extract_write(tb: CellTestbench, out: CellCharacterization,
                   trust: Optional[TrustAccumulator] = None) -> None:
    cond = tb.cond
    t_cyc = cond.t_cycle
    schedule = Schedule(
        [
            ScheduleStep(Mode.STANDBY, 2 * t_cyc),
            ScheduleStep(Mode.WRITE, t_cyc, data=False),
            ScheduleStep(Mode.WRITE, t_cyc, data=True),
            ScheduleStep(Mode.WRITE, t_cyc, data=False),
            ScheduleStep(Mode.STANDBY, t_cyc),
        ],
        cond,
        volatile=tb.kind == "6t",
    )
    result = _run_schedule(tb, schedule, data=True, mtj_data=False,
                           trust=trust)
    window = schedule.windows_of(Mode.WRITE)[1]  # writes True
    out.e_write = _window_energy(result, window)

    t_wl = window.t_start + 0.25 * window.duration
    crossing = result.crossing_time(tb.core.q, cond.vdd / 2.0,
                                    direction="rise", after=t_wl)
    if crossing is None:
        raise CharacterizationError("write never flipped the cell")
    out.write_delay = crossing - t_wl
    if tb.core.read_data(result.final_solution(), cond.vdd):
        raise CharacterizationError("final write(0) did not stick")


# ---------------------------------------------------------------------------
# store / restore
# ---------------------------------------------------------------------------

def _mtj_peak_current(result: TransientResult, mtj: MTJ,
                      window: PhaseWindow, before: float,
                      state: "MTJState") -> float:
    """Peak |I| of an MTJ inside ``window`` at samples earlier than
    ``before`` — i.e. before its switching event — evaluated with the
    ``state`` the junction held during that interval."""
    free_idx, pinned_idx = mtj.node_index
    mask = (result.time >= window.t_start) & (result.time <= min(window.t_end, before))
    if not np.any(mask):
        return 0.0
    v_free = result.states[mask][:, free_idx] if free_idx >= 0 else 0.0
    v_pinned = result.states[mask][:, pinned_idx] if pinned_idx >= 0 else 0.0
    v = np.asarray(v_free - v_pinned)
    currents = [abs(mtj.current_at(float(vi), state)) for vi in v]
    return max(currents)


def _extract_store(tb: CellTestbench, out: CellCharacterization,
                   trust: Optional[TrustAccumulator] = None) -> None:
    cond = tb.cond
    schedule = Schedule(
        [
            ScheduleStep(Mode.STANDBY, 1e-9),
            ScheduleStep(Mode.STORE_H, cond.t_store_step),
            ScheduleStep(Mode.STORE_L, cond.t_store_step),
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
        ],
        cond,
        volatile=False,
    )
    # Data = True; the MTJs start holding the complement so both must flip.
    result = _run_schedule(tb, schedule, data=True, mtj_data=False,
                           trust=trust)
    cell = tb.nv_cell

    win_h, win_l = (schedule.windows_of(Mode.STORE_H)[0],
                    schedule.windows_of(Mode.STORE_L)[0])
    out.e_store_h = _window_energy(result, win_h)
    out.e_store_l = _window_energy(result, win_l)
    out.e_store = out.e_store_h + out.e_store_l
    out.t_store = cond.t_store
    out.store_events = len(result.events)
    if cell.stored_data(tb.circuit) is not True:
        raise CharacterizationError(
            f"store did not encode the data: events={result.events}"
        )

    mtj_q = cell.mtj_q(tb.circuit)
    mtj_qb = cell.mtj_qb(tb.circuit)
    flip_q = next((t for t, name, _ in result.events if name == mtj_q.name),
                  win_h.t_end)
    flip_qb = next((t for t, name, _ in result.events if name == mtj_qb.name),
                   win_l.t_end)
    # Before its flip, the Q-side MTJ is still parallel (H-store drives
    # P -> AP) and the QB-side is antiparallel (L-store drives AP -> P).
    out.store_current_h = _mtj_peak_current(result, mtj_q, win_h, flip_q,
                                            MTJState.PARALLEL)
    out.store_current_l = _mtj_peak_current(result, mtj_qb, win_l, flip_qb,
                                            MTJState.ANTIPARALLEL)


def _extract_restore(tb: CellTestbench, out: CellCharacterization,
                     trust: Optional[TrustAccumulator] = None) -> None:
    cond = tb.cond
    schedule = Schedule(
        [
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
            ScheduleStep(Mode.RESTORE, cond.t_restore),
            ScheduleStep(Mode.STANDBY, 3e-9),
        ],
        cond,
        volatile=False,
    )
    result = _run_schedule(tb, schedule, data=True, mtj_data=True,
                           collapsed=True, trust=trust)
    window = schedule.windows_of(Mode.RESTORE)[0]
    out.e_restore = _window_energy(result, window)
    out.t_restore = cond.t_restore
    out.restore_ok = tb.core.read_data(result.final_solution(), cond.vdd)
