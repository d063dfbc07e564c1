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
from typing import Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..analysis.results import TransientResult
from ..analysis.trust import TrustAccumulator
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from ..pg.scheduler import PhaseWindow, Schedule, ScheduleStep
from . import cache
from .cache import CELL_KINDS, CellPoint
from .data import CellCharacterization
from .testbench import (
    STORE_STEPS,
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
    return max(tb.supply_power(sol), 0.0)


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


def window_energy(result: TransientResult, window: PhaseWindow) -> float:
    """Energy the ``SUPPLY_SOURCES`` deliver inside ``window``."""
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
    out.e_read = window_energy(result, window)
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
    out.e_write = window_energy(result, window)

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

def run_store(tb: CellTestbench,
              ) -> Tuple[TransientResult, PhaseWindow, PhaseWindow]:
    """The two-step store of a 1, from standby into shutdown.

    The MTJs start holding the complement, so both must flip.  Returns
    the transient and its H-store and L-store windows.
    """
    schedule = Schedule(
        [
            ScheduleStep(Mode.STANDBY, 1e-9),
            ScheduleStep(Mode.STORE_H, tb.cond.t_store_step),
            ScheduleStep(Mode.STORE_L, tb.cond.t_store_step),
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
        ],
        tb.cond,
        volatile=False,
    )
    result = tb.run(schedule, mtj_data=False)
    return (result, schedule.windows_of(Mode.STORE_H)[0],
            schedule.windows_of(Mode.STORE_L)[0])


def run_restore(tb: CellTestbench) -> Tuple[TransientResult, PhaseWindow]:
    """Wake-up of a stored 1 from a collapsed rail: shutdown, the
    restore window, then standby.  Returns the transient and its
    restore window."""
    schedule = Schedule(
        [
            ScheduleStep(Mode.SHUTDOWN, 2e-9),
            ScheduleStep(Mode.RESTORE, tb.cond.t_restore),
            ScheduleStep(Mode.STANDBY, 3e-9),
        ],
        tb.cond,
        volatile=False,
    )
    result = tb.run(schedule, mtj_data=True, collapsed=True)
    return result, schedule.windows_of(Mode.RESTORE)[0]


def _store_peak_current(tb: CellTestbench, result: TransientResult,
                        mode: Mode, window: PhaseWindow) -> float:
    """Peak |I| through the junction store step ``mode`` switches,
    inside ``window`` and before its flip, evaluated in the state that
    junction starts from (``STORE_STEPS``)."""
    states, side = STORE_STEPS[mode]
    cell = tb.nv_cell
    mtj = (cell.mtj_q, cell.mtj_qb)[side](tb.circuit)
    flip = next((t for t, name, _ in result.events if name == mtj.name),
                window.t_end)
    mask = (result.time >= window.t_start) & (result.time <= min(window.t_end, flip))
    if not np.any(mask):
        return 0.0
    return float(np.abs(mtj_current(result, mtj, states[side], mask)).max())


def _extract_store(tb: CellTestbench, out: CellCharacterization,
                   trust: TrustAccumulator) -> None:
    result, win_h, win_l = run_store(tb)
    trust.note(result)
    out.e_store_h = window_energy(result, win_h)
    out.e_store_l = window_energy(result, win_l)
    out.e_store = out.e_store_h + out.e_store_l
    out.t_store = tb.cond.t_store
    out.store_events = len(result.events)
    if tb.nv_cell.stored_data(tb.circuit) is not True:
        raise CharacterizationError(
            f"store did not encode the data: events={result.events}"
        )
    out.store_current_h = _store_peak_current(tb, result, Mode.STORE_H,
                                              win_h)
    out.store_current_l = _store_peak_current(tb, result, Mode.STORE_L,
                                              win_l)


def _extract_restore(tb: CellTestbench, out: CellCharacterization,
                     trust: TrustAccumulator) -> None:
    result, window = run_restore(tb)
    trust.note(result)
    out.e_restore = window_energy(result, window)
    out.t_restore = tb.cond.t_restore
    out.restore_ok = tb.core.read_data(result.final_solution(), tb.cond.vdd)
