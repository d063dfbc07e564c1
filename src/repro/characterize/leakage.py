"""Leakage-current extraction (paper Fig. 3(a)).

Sweeps the CTRL-line bias of the NV-SRAM cell in the normal operation
mode and reports the cell leakage current, together with the flat
reference line of the equivalent volatile 6T cell.  The paper's result —
a leakage minimum at a small positive V_CTRL (0.07 V), where the NV cell
becomes comparable to the 6T cell — emerges from two competing paths:

* at V_CTRL = 0 the off PS-FinFETs see the full storage-node voltage and
  leak through the MTJs into CTRL;
* raising V_CTRL reverse-biases the PS-FinFET gates (V_GS < 0) and chokes
  that path, but past the optimum CTRL itself back-injects current
  through the MTJ into the low storage node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..analysis import dc_sweep
from ..errors import ConvergenceError
from ..recovery.partial import SkipRecord
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from .testbench import build_cell_testbench


@dataclass
class LeakageSweep:
    """Fig. 3(a) data: leakage vs V_CTRL plus the 6T reference.

    ``i_leak_nv`` is NaN at skipped points (see ``skips``); the optimum is
    taken over the converged points only.
    """

    v_ctrl: np.ndarray
    i_leak_nv: np.ndarray
    i_leak_6t: float
    v_ctrl_optimal: float
    i_leak_nv_min: float
    skips: List[SkipRecord] = field(default_factory=list)

    def rows(self):
        """(v_ctrl, i_nv, i_6t) tuples for tabular reports."""
        return [
            (float(v), float(i), self.i_leak_6t)
            for v, i in zip(self.v_ctrl, self.i_leak_nv)
        ]


def _cell_leakage_current(tb, sol) -> float:
    """Total static current drawn by the cell, referred to VDD."""
    return max(tb.supply_power(sol), 0.0) / tb.cond.vdd


def leakage_vs_vctrl(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    v_ctrl_values: Optional[Sequence[float]] = None,
    data: bool = True,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
) -> LeakageSweep:
    """Reproduce Fig. 3(a): normal-mode leakage as a function of V_CTRL."""
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    if v_ctrl_values is None:
        v_ctrl_values = np.linspace(0.0, 0.30, 31)

    tb = build_cell_testbench("nv", cond, domain, nfet=nfet, pfet=pfet,
                              mtj_params=mtj_params)
    tb.apply_mode(Mode.STANDBY)
    ic = tb.initial_conditions(data)
    sweep = dc_sweep(tb.circuit, "vctrl", v_ctrl_values, ic=ic,
                     on_error="skip")
    i_nv = sweep.measure(lambda sol: _cell_leakage_current(tb, sol))

    tb6 = build_cell_testbench("6t", cond, domain, nfet=nfet, pfet=pfet)
    i_6t = _cell_leakage_current(tb6, tb6.settle(Mode.STANDBY, data))

    values = np.asarray(list(v_ctrl_values), dtype=float)
    if np.all(np.isnan(i_nv)):
        raise ConvergenceError(
            "leakage sweep: every V_CTRL point failed to converge")
    best = int(np.nanargmin(i_nv))
    return LeakageSweep(
        v_ctrl=values,
        i_leak_nv=np.asarray(i_nv),
        i_leak_6t=i_6t,
        v_ctrl_optimal=float(values[best]),
        i_leak_nv_min=float(i_nv[best]),
        skips=list(sweep.skips),
    )
