"""Single-cell transient/DC testbench shared by all characterisations.

The testbench wires one cell (NV-SRAM or 6T) to ideal control-line
sources through a header power switch, with explicit bitline capacitances
and precharge / write-driver switches:

::

    rail o--[power switch]--o vvdd --- cell --- bl/blb --o C_BL
      |                                            |
      +--[precharge switch]<-- prech               +--[write switch]<-- write_en
                                                        |
                                                     bl_drv source

Energy accounting sums the delivered power of every source in
``SUPPLY_SOURCES``; the SR and PG gate drivers carry no charge in this
netlist (peripheral driver energy is excluded, as in the paper), so
listing them is harmless but keeps the bookkeeping honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..analysis import operating_point, transient
from ..analysis.results import Solution, TransientResult
from ..analysis.transient import TransientOptions
from ..circuit import (
    Capacitor,
    Circuit,
    VoltageControlledSwitch,
    VoltageSource,
)
from ..circuit.waveforms import Waveform
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJ, MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..cells import PowerDomain, add_nvsram, add_power_switch, add_sram6t
from ..cells.nvsram import NvSramCell
from ..cells.sram6t import Sram6TCell
from ..pg.modes import Mode, OperatingConditions, bias_for_mode
from ..pg.scheduler import Schedule

#: Precharge-device on resistance (ohms).
_R_PRECHARGE = 4e3
#: Write-driver on resistance (ohms).
_R_WRITE_DRIVER = 1.5e3

#: Map schedule line names to testbench source element names.
LINE_SOURCES = {
    "rail": "vrail",
    "pg": "vpg",
    "wl": "vwl",
    "sr": "vsr",
    "ctrl": "vctrl",
    "bl": "vbl_drv",
    "blb": "vblb_drv",
    "prech": "vprech",
    "write_en": "vwren",
}

#: Sources whose delivered energy constitutes the cell energy.
SUPPLY_SOURCES = ("vrail", "vwl", "vctrl", "vbl_drv", "vblb_drv")

#: The two-step CIMS store (Yamamoto and Sugahara) of a cell holding a
#: 1: per step, the (MTJ_Q, MTJ_QB) states it starts from and the side
#: (0 = Q, 1 = QB) whose junction it switches.  The H-store (CTRL low)
#: drives the Q-side MTJ P -> AP; the L-store then drives the QB side
#: AP -> P.
STORE_STEPS: Dict[Mode, Tuple[Tuple[MTJState, MTJState], int]] = {
    Mode.STORE_H: ((MTJState.PARALLEL, MTJState.ANTIPARALLEL), 0),
    Mode.STORE_L: ((MTJState.ANTIPARALLEL, MTJState.ANTIPARALLEL), 1),
}


@dataclass
class CellTestbench:
    """A built testbench: circuit plus handles and bookkeeping names."""

    circuit: Circuit
    kind: str
    cell: object          # Sram6TCell or NvSramCell
    cond: OperatingConditions
    domain: PowerDomain

    @property
    def nv_cell(self) -> NvSramCell:
        if self.kind != "nv":
            raise CharacterizationError("testbench does not host an NV cell")
        return self.cell

    @property
    def core(self) -> Sram6TCell:
        return self.cell.core if self.kind == "nv" else self.cell

    # -- drive ----------------------------------------------------------
    def apply_mode(self, mode: Mode) -> None:
        """Set every source to the DC bias of ``mode``."""
        bias = bias_for_mode(mode, self.cond, volatile=self.kind == "6t")
        for line, level in bias.as_dict().items():
            self.circuit[LINE_SOURCES[line]].set_level(level)

    def apply_waveforms(self, waves: Dict[str, Waveform]) -> None:
        """Attach compiled schedule waveforms to the line sources."""
        for line, wave in waves.items():
            self.circuit[LINE_SOURCES[line]].set_waveform(wave)

    def initial_conditions(self, data: bool) -> Dict[str, float]:
        ic = self.core.initial_conditions(data, self.cond.vdd)
        ic["vvdd"] = self.cond.vdd
        return ic

    def supply_power(self, sol: Solution) -> float:
        """Power the ``SUPPLY_SOURCES`` deliver at the operating point
        ``sol``."""
        return float(sum(self.circuit[name].delivered_power(sol)
                         for name in SUPPLY_SOURCES))

    def set_mtj_data(self, data: bool) -> None:
        """Program the MTJ pair to encode ``data`` (NV cells only).

        Q-high is encoded as (MTJ_Q, MTJ_QB) = (AP, P); see
        :mod:`repro.cells.nvsram`.
        """
        cell = self.nv_cell
        if data:
            cell.set_mtj_states(self.circuit, MTJState.ANTIPARALLEL,
                                MTJState.PARALLEL)
        else:
            cell.set_mtj_states(self.circuit, MTJState.PARALLEL,
                                MTJState.ANTIPARALLEL)

    def store_step(self, mode: Mode) -> MTJ:
        """Bias store step ``mode`` (``STORE_H`` or ``STORE_L``) with the
        MTJ pair in the states that step starts from, and return the
        junction it switches (see ``STORE_STEPS``)."""
        states, side = STORE_STEPS[mode]
        cell = self.nv_cell
        self.apply_mode(mode)
        cell.set_mtj_states(self.circuit, *states)
        return (cell.mtj_q, cell.mtj_qb)[side](self.circuit)

    # -- recipes --------------------------------------------------------
    def settle(self, mode: Mode, data: bool = True,
               pg_override: Optional[float] = None) -> Solution:
        """DC operating point of the cell held in ``mode``.

        The latch is pinned to ``data`` at the mode's rail level (VVDD
        at the rail) as a nodeset; in shutdown nothing is pinned, since
        the powered-off latch holds no state.  ``pg_override`` replaces
        the power-switch gate level of the mode.
        """
        self.apply_mode(mode)
        if pg_override is not None:
            self.circuit["vpg"].set_level(pg_override)
        if mode is Mode.SHUTDOWN:
            ic = None
        else:
            rail = (self.cond.v_sleep_rail if mode is Mode.SLEEP
                    else self.cond.vdd)
            ic = self.core.initial_conditions(data, rail)
            ic["vvdd"] = rail
        return operating_point(self.circuit, ic=ic)

    def run(self, schedule: Schedule, data: bool = True,
            mtj_data: Optional[bool] = None, collapsed: bool = False,
            dt_max: Optional[float] = None) -> TransientResult:
        """Transient of the cell driven through ``schedule``.

        ``mtj_data`` programs the MTJ pair first (NV cells only).  The
        run starts from the latch holding ``data`` at full rail, or with
        ``collapsed`` from a fully discharged cell and rail.  ``dt_max``
        defaults to 1/40 of the schedule.
        """
        self.apply_waveforms(schedule.line_waveforms())
        if self.kind == "nv" and mtj_data is not None:
            self.set_mtj_data(mtj_data)
        if collapsed:
            ic = {self.core.q: 0.0, self.core.qb: 0.0, "vvdd": 0.0}
        else:
            ic = self.initial_conditions(data)
        span = schedule.total_duration
        options = TransientOptions(
            dt_initial=min(20e-12, self.cond.t_cycle / 200.0),
            dt_max=span / 40.0 if dt_max is None else dt_max,
        )
        return transient(self.circuit, span, ic=ic, options=options)


def mtj_current(result: TransientResult, mtj: MTJ, state: MTJState,
                mask: "np.ndarray | slice" = slice(None)) -> np.ndarray:
    """Current through ``mtj`` at the samples ``mask`` selects (all by
    default), evaluated with the junction in ``state``."""
    free_idx, pinned_idx = mtj.node_index
    states = result.states[mask]
    v_free = states[:, free_idx] if free_idx >= 0 else 0.0
    v_pinned = states[:, pinned_idx] if pinned_idx >= 0 else 0.0
    v = np.asarray(v_free - v_pinned)
    return np.array([mtj.current_at(float(vi), state) for vi in v])


def build_cell_testbench(
    kind: str,
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    nfsw: Optional[int] = None,
) -> CellTestbench:
    """Build the single-cell testbench.

    Parameters
    ----------
    kind:
        ``"nv"`` for the NV-SRAM cell, ``"6t"`` for the volatile baseline.
    domain:
        Power-domain geometry; sets the bitline capacitance.
    nfsw:
        Power-switch fins per cell (defaults to ``cond.nfsw``).
    """
    if kind not in ("nv", "6t"):
        raise CharacterizationError(f"unknown cell kind: {kind}")
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    nfsw = cond.nfsw if nfsw is None else nfsw

    circuit = Circuit(f"{kind}-cell-testbench")
    vdd = cond.vdd

    # Control-line sources (levels are (re)assigned by apply_mode /
    # apply_waveforms before each analysis).
    circuit.add(VoltageSource("vrail", "rail", "0", dc=vdd))
    circuit.add(VoltageSource("vpg", "pg", "0", dc=0.0))
    circuit.add(VoltageSource("vwl", "wl", "0", dc=0.0))
    circuit.add(VoltageSource("vsr", "sr", "0", dc=0.0))
    circuit.add(VoltageSource("vctrl", "ctrl", "0", dc=0.0))
    circuit.add(VoltageSource("vbl_drv", "bl_drv", "0", dc=vdd))
    circuit.add(VoltageSource("vblb_drv", "blb_drv", "0", dc=vdd))
    circuit.add(VoltageSource("vprech", "prech", "0", dc=vdd))
    circuit.add(VoltageSource("vwren", "write_en", "0", dc=0.0))

    add_power_switch(circuit, "psw", "rail", "vvdd", "pg",
                     nfsw=nfsw, pfet=pfet)

    # Bitlines: capacitance set by the domain depth, precharge devices to
    # the rail, and write drivers behind enable switches.
    c_bl = domain.bitline_capacitance
    for bitline, driver in (("bl", "bl_drv"), ("blb", "blb_drv")):
        circuit.add(Capacitor(f"c_{bitline}", bitline, "0", c_bl))
        circuit.add(VoltageControlledSwitch(
            f"sw_prech_{bitline}", bitline, "rail", "prech", "0",
            r_on=_R_PRECHARGE, v_on=vdd, v_off=0.0,
        ))
        circuit.add(VoltageControlledSwitch(
            f"sw_write_{bitline}", bitline, driver, "write_en", "0",
            r_on=_R_WRITE_DRIVER, v_on=vdd, v_off=0.0,
        ))

    if kind == "nv":
        cell = add_nvsram(
            circuit, "cell", vvdd="vvdd", bl="bl", blb="blb", wl="wl",
            sr="sr", ctrl="ctrl", nfet=nfet, pfet=pfet,
            mtj_params=mtj_params,
        )
    else:
        cell = add_sram6t(
            circuit, "cell", vvdd="vvdd", bl="bl", blb="blb", wl="wl",
            nfet=nfet, pfet=pfet,
        )
    return CellTestbench(circuit=circuit, kind=kind, cell=cell,
                         cond=cond, domain=domain)
