"""MTJ disturbance analysis for MTJ-connected operation (NOF hazard).

Under NVPG the PS-FinFETs isolate the MTJs whenever the cell is read or
written, so the junctions see no current.  The NOF architecture keeps
nonvolatile retention engaged during normal operation — which means
every read and write drives *some* current through the MTJs.  If that
current approaches the critical current for long enough, ordinary
accesses can corrupt the stored state (an analogue of SRAM read
disturb).

This module runs read and write transients with the SR line active and
reports the worst junction current relative to Ic, plus the accumulated
switching progress predicted by the CIMS model — quantifying a hazard
the paper's architecture comparison implies but does not plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis import transient
from ..analysis.transient import TransientOptions
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from ..pg.scheduler import Schedule, ScheduleStep
from .testbench import build_cell_testbench, mtj_current


@dataclass
class DisturbReport:
    """Worst-case MTJ stress during MTJ-connected accesses.

    Attributes
    ----------
    peak_current_ratio:
        max |I_MTJ| / Ic over both junctions and the whole activity
        burst.  Below 1.0 means no switching is possible at all.
    peak_progress:
        Largest CIMS switching progress either junction accumulated
        (1.0 would mean an actual flip).
    flipped:
        True if a junction actually switched during the burst — a hard
        disturb failure.
    mode:
        "read" or "write".
    """

    mode: str
    peak_current_ratio: float
    peak_progress: float
    flipped: bool

    @property
    def safe(self) -> bool:
        """No flip and a healthy margin below the critical current."""
        return not self.flipped and self.peak_current_ratio < 0.95


def nof_access_disturb(
    mode: Mode,
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    cycles: int = 4,
    data: bool = True,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
) -> DisturbReport:
    """Stress the MTJs with a burst of accesses while SR is active.

    Parameters
    ----------
    mode:
        ``Mode.READ`` or ``Mode.WRITE`` — the access type to burst.
    cycles:
        Number of back-to-back access cycles.

    The MTJ states are set consistent with the stored data (the NOF
    steady state), so any switching event is a genuine disturb.
    """
    return _access_disturb(mode, cond, domain, cycles, data, retention=True,
                           build=dict(nfet=nfet, pfet=pfet,
                                      mtj_params=mtj_params))


def nvpg_access_disturb(
    mode: Mode,
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    **kwargs,
) -> DisturbReport:
    """The NVPG reference: the same burst with SR held off.

    The PS-FinFETs isolate the junctions, so the peak current ratio is
    essentially zero — the contrast that motivates the separation.
    ``kwargs`` go to :func:`~repro.characterize.testbench.build_cell_testbench`.
    """
    return _access_disturb(mode, cond, domain, cycles=4, data=True,
                           retention=False, build=kwargs)


def _access_disturb(mode: Mode, cond: Optional[OperatingConditions],
                    domain: Optional[PowerDomain], cycles: int, data: bool,
                    retention: bool, build: dict) -> DisturbReport:
    """Burst ``cycles`` accesses of ``mode`` over MTJs holding ``data``;
    ``retention`` holds SR and CTRL at their NOF levels throughout."""
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    if mode not in (Mode.READ, Mode.WRITE):
        raise ValueError("disturb analysis takes Mode.READ or Mode.WRITE")

    tb = build_cell_testbench("nv", cond, domain, **build)
    t_cyc = cond.t_cycle
    steps: List[ScheduleStep] = [ScheduleStep(Mode.STANDBY, t_cyc)]
    toggle = data
    for _ in range(cycles):
        if mode is Mode.READ:
            steps.append(ScheduleStep(Mode.READ, t_cyc))
        else:
            toggle = not toggle
            steps.append(ScheduleStep(Mode.WRITE, t_cyc, data=toggle))
    steps.append(ScheduleStep(Mode.STANDBY, t_cyc))
    schedule = Schedule(steps, cond, volatile=False)

    tb.apply_waveforms(schedule.line_waveforms())
    if retention:
        tb.circuit["vsr"].set_level(cond.v_sr)
        tb.circuit["vctrl"].set_level(cond.v_ctrl_normal)
    tb.set_mtj_data(data)

    # Not CellTestbench.run, which would re-apply the schedule's SR and
    # CTRL waveforms over the DC retention levels; the burst also keeps
    # the default dt_max.
    result = transient(
        tb.circuit, schedule.total_duration,
        ic=tb.initial_conditions(data),
        options=TransientOptions(dt_initial=min(20e-12, t_cyc / 200.0)),
    )

    mtjs = (tb.nv_cell.mtj_q(tb.circuit), tb.nv_cell.mtj_qb(tb.circuit))
    return DisturbReport(
        mode=mode.value,
        peak_current_ratio=max(
            float(np.abs(mtj_current(result, mtj, mtj.state)).max())
            / mtj.params.critical_current for mtj in mtjs),
        peak_progress=max(mtj.progress for mtj in mtjs),
        flipped=len(result.events) > 0,
    )
