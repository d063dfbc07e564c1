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
from typing import Optional

import numpy as np

from ..errors import CharacterizationError
from ..analysis.results import TransientResult
from ..analysis.trust import TrustAccumulator
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJ, MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from ..pg.scheduler import PhaseWindow, Schedule, ScheduleStep
from . import cache
from .cache import CELL_KINDS, CellPoint
from .data import CellCharacterization
from .testbench import (
    SUPPLY_SOURCES,
    CellTestbench,
    build_cell_testbench,
    mtj_current,
)

#: Bitline differential treated as a completed read (volts).
READ_SENSE_THRESHOLD = 0.10


def characterize_cell(
    kind: str,
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    cache_dir: "Optional[Path] | str" = "auto",
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

    The testbench netlist is linted before simulating
    (:func:`repro.verify.assert_clean`; ``REPRO_LINT=0`` disables it) and
    the result is validated (:meth:`CellCharacterization.validate`)
    before it is cached under its :class:`~repro.characterize.cache.CellPoint`.
    """
    if kind not in CELL_KINDS:
        raise CharacterizationError(f"unknown cell kind: {kind}")
    point = CellPoint(kind, cond, domain, nfet, pfet, mtj_params)
    return cache.characterized(point, cache_dir, _extract_cell)


def _extract_cell(point: CellPoint) -> CellCharacterization:
    kind, cond, domain = point.kind, point.cond, point.domain
    result = CellCharacterization(
        kind=kind,
        n_wordlines=domain.n_wordlines,
        vdd=cond.vdd,
        frequency=cond.frequency,
    )

    def fresh_tb() -> CellTestbench:
        return build_cell_testbench(kind, cond, domain, nfet=point.nfet,
                                    pfet=point.pfet, mtj_params=point.mtj)

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
    return result


# ---------------------------------------------------------------------------
# static powers
# ---------------------------------------------------------------------------

def _static_power(tb: CellTestbench, mode: Mode, trust: TrustAccumulator,
                  pg_override: Optional[float] = None) -> float:
    sol = tb.settle(mode, pg_override=pg_override)
    trust.note(sol)
    power = sum(
        tb.circuit[name].delivered_power(sol) for name in SUPPLY_SOURCES
    )
    return max(power, 0.0)


def _extract_static_powers(tb: CellTestbench, out: CellCharacterization,
                           trust: TrustAccumulator) -> None:
    out.p_normal = _static_power(tb, Mode.STANDBY, trust)
    out.p_sleep = _static_power(tb, Mode.SLEEP, trust)
    if tb.kind == "nv":
        out.p_shutdown = _static_power(tb, Mode.SHUTDOWN, trust)
        out.p_shutdown_nominal = _static_power(
            tb, Mode.SHUTDOWN, trust, pg_override=tb.cond.vdd
        )
    else:
        # The volatile cell cannot shut down without losing data; its
        # "long inactive period" is spent in sleep.
        out.p_shutdown = out.p_sleep
        out.p_shutdown_nominal = out.p_sleep


def _window_energy(result: TransientResult, window: PhaseWindow) -> float:
    return result.energy(SUPPLY_SOURCES, window.t_start, window.t_end)


# ---------------------------------------------------------------------------
# read / write
# ---------------------------------------------------------------------------

def _extract_read(tb: CellTestbench, out: CellCharacterization,
                  trust: TrustAccumulator) -> None:
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
    result = tb.run(schedule, mtj_data=False)
    trust.note(result)
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
                   trust: TrustAccumulator) -> None:
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
    result = tb.run(schedule, mtj_data=False)
    trust.note(result)
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

def store_schedule(cond: OperatingConditions) -> Schedule:
    """The two-step store: H-store, then L-store, then shutdown."""
    return Schedule(
        [
            ScheduleStep(Mode.STANDBY, 1e-9),
            ScheduleStep(Mode.STORE_H, cond.t_store_step),
            ScheduleStep(Mode.STORE_L, cond.t_store_step),
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
        ],
        cond,
        volatile=False,
    )


def restore_schedule(cond: OperatingConditions) -> Schedule:
    """Wake-up from shutdown: the restore window, then standby."""
    return Schedule(
        [
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
            ScheduleStep(Mode.RESTORE, cond.t_restore),
            ScheduleStep(Mode.STANDBY, 3e-9),
        ],
        cond,
        volatile=False,
    )


def _mtj_peak_current(result: TransientResult, mtj: MTJ,
                      window: PhaseWindow, before: float,
                      state: MTJState) -> float:
    """Peak |I| of an MTJ inside ``window`` at samples earlier than
    ``before`` — i.e. before its switching event — evaluated with the
    ``state`` the junction held during that interval."""
    mask = (result.time >= window.t_start) & (result.time <= min(window.t_end, before))
    if not np.any(mask):
        return 0.0
    return float(np.abs(mtj_current(result, mtj, state, mask)).max())


def _extract_store(tb: CellTestbench, out: CellCharacterization,
                   trust: TrustAccumulator) -> None:
    cond = tb.cond
    schedule = store_schedule(cond)
    # Data = True; the MTJs start holding the complement so both must flip.
    result = tb.run(schedule, mtj_data=False)
    trust.note(result)
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
                     trust: TrustAccumulator) -> None:
    cond = tb.cond
    schedule = restore_schedule(cond)
    result = tb.run(schedule, mtj_data=True, collapsed=True)
    trust.note(result)
    window = schedule.windows_of(Mode.RESTORE)[0]
    out.e_restore = _window_energy(result, window)
    out.t_restore = cond.t_restore
    out.restore_ok = tb.core.read_data(result.final_solution(), cond.vdd)
