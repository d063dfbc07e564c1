"""Store-current extraction (paper Figs. 3(b) and 3(c)).

The two-step store must push at least ``store_margin x Ic`` through each
MTJ to guarantee current-induced magnetisation switching:

* **Fig. 3(b)** — H-store: SR is swept with CTRL grounded; the high
  storage node sources the current ``I_MTJ(P->AP)`` through its PS-FinFET
  and (parallel-state) MTJ into CTRL.
* **Fig. 3(c)** — L-store: with SR fixed at its chosen value, CTRL is
  swept; the CTRL line sources ``I_MTJ(AP->P)`` through the (antiparallel)
  MTJ and PS-FinFET into the low storage node.

Both sweeps are DC: the MTJ state is frozen during operating-point
analyses, exactly like sweeping a fixed-state macromodel in HSPICE.
The helpers also report the minimum bias achieving the required margin,
which is how the paper justifies V_SR = 0.65 V / V_CTRL = 0.5 V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import CharacterizationError
from ..analysis import dc_sweep
from ..recovery.partial import SkipRecord
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from .testbench import LINE_SOURCES, build_cell_testbench


@dataclass
class StoreCurrentSweep:
    """One store-current transfer curve plus margin bookkeeping."""

    bias_name: str                 # "v_sr" or "v_ctrl"
    bias: np.ndarray
    current: np.ndarray            # |I_MTJ| at each bias point (amps)
    i_critical: float              # MTJ critical current Ic
    margin: float                  # required multiple of Ic
    bias_at_margin: Optional[float]  # smallest bias reaching margin*Ic
    skips: List[SkipRecord] = field(default_factory=list)  # NaN points

    @property
    def i_required(self) -> float:
        return self.margin * self.i_critical

    def rows(self):
        return [(float(b), float(i)) for b, i in zip(self.bias, self.current)]


def _find_margin_bias(bias: np.ndarray, current: np.ndarray,
                      target: float) -> Optional[float]:
    """Smallest bias where |I| first reaches ``target`` (interpolated).

    NaN entries (skipped sweep points) never satisfy the comparison and
    are never interpolated against: the conservative answer is the first
    *converged* point at or above the target.
    """
    above = np.nonzero(current >= target)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(bias[0])
    b0, b1 = bias[k - 1], bias[k]
    i0, i1 = current[k - 1], current[k]
    if not np.isfinite(i0):
        return float(b1)
    if i1 == i0:
        return float(b1)
    return float(b0 + (target - i0) * (b1 - b0) / (i1 - i0))


def _store_sweep(mode: Mode, line: str, values: Optional[Sequence[float]],
                 cond: Optional[OperatingConditions],
                 domain: Optional[PowerDomain], nfet: FinFETParams,
                 pfet: FinFETParams, mtj_params: MTJParams,
                 ) -> StoreCurrentSweep:
    """|I| through the junction store step ``mode`` switches, with Q
    high and ``line`` ("sr" or "ctrl") swept over ``values``."""
    cond = cond or OperatingConditions()
    if values is None:
        values = np.linspace(0.0, 0.9, 37)
    tb = build_cell_testbench("nv", cond, domain, nfet=nfet, pfet=pfet,
                              mtj_params=mtj_params)
    mtj = tb.store_step(mode)
    sweep = dc_sweep(tb.circuit, LINE_SOURCES[line], values,
                     ic=tb.initial_conditions(True), on_error="skip")
    current = np.abs(sweep.measure(mtj.current))
    bias = np.asarray(list(values), dtype=float)
    i_critical = mtj.params.critical_current
    return StoreCurrentSweep(
        bias_name=f"v_{line}",
        bias=bias,
        current=current,
        i_critical=i_critical,
        margin=cond.store_margin,
        bias_at_margin=_find_margin_bias(
            bias, current, cond.store_margin * i_critical),
        skips=list(sweep.skips),
    )


def store_current_vs_vsr(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    v_sr_values: Optional[Sequence[float]] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
) -> StoreCurrentSweep:
    """Fig. 3(b): H-store current I_MTJ(P->AP) versus V_SR."""
    return _store_sweep(Mode.STORE_H, "sr", v_sr_values, cond, domain,
                        nfet, pfet, mtj_params)


def store_current_vs_vctrl(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    v_ctrl_values: Optional[Sequence[float]] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
) -> StoreCurrentSweep:
    """Fig. 3(c): L-store current I_MTJ(AP->P) versus V_CTRL at fixed V_SR."""
    return _store_sweep(Mode.STORE_L, "ctrl", v_ctrl_values, cond, domain,
                        nfet, pfet, mtj_params)


def verify_store_bias_choice(cond: Optional[OperatingConditions] = None,
                             domain: Optional[PowerDomain] = None) -> dict:
    """Check that Table I's (V_SR, V_CTRL) = (0.65, 0.5) meets the margin.

    Returns a summary dict; raises if the margin is unreachable anywhere
    in the swept range.
    """
    cond = cond or OperatingConditions()
    h = store_current_vs_vsr(cond, domain)
    l = store_current_vs_vctrl(cond, domain)
    if h.bias_at_margin is None or l.bias_at_margin is None:
        raise CharacterizationError(
            "store-current margin unreachable in the swept bias range"
        )
    return {
        "v_sr_required": h.bias_at_margin,
        "v_ctrl_required": l.bias_at_margin,
        "i_required": h.i_required,
        "i_at_table1_vsr": float(np.interp(cond.v_sr, h.bias, h.current)),
        "i_at_table1_vctrl": float(np.interp(cond.v_ctrl_store, l.bias, l.current)),
    }


def derive_store_biases(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    guard_band: float = 0.03,
) -> OperatingConditions:
    """Derive (V_SR, V_CTRL) from the Fig. 3(b)/(c) curves.

    This is the paper's design methodology made executable: sweep the two
    store biases, find the smallest values reaching ``store_margin x Ic``
    and add a small guard band.  It is what makes the Fig. 9(b)
    configuration meaningful — with the relaxed Jc = 1e6 A/cm^2 card the
    margin is met at much lower biases, which is where the store-energy
    (and hence BET) reduction comes from.

    Returns a copy of ``cond`` with ``v_sr`` and ``v_ctrl_store`` replaced.

    Raises
    ------
    CharacterizationError
        If either margin is unreachable within the supply range.
    """
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    h = store_current_vs_vsr(cond, domain, nfet=nfet, pfet=pfet,
                             mtj_params=mtj_params)
    if h.bias_at_margin is None:
        raise CharacterizationError(
            "H-store margin unreachable: max "
            f"{np.nanmax(h.current):.3g} A < {h.i_required:.3g} A"
        )
    v_sr = min(h.bias_at_margin + guard_band, cond.vdd)
    cond_h = cond.with_(v_sr=v_sr)
    l = store_current_vs_vctrl(cond_h, domain, nfet=nfet, pfet=pfet,
                               mtj_params=mtj_params)
    if l.bias_at_margin is None:
        raise CharacterizationError(
            "L-store margin unreachable: max "
            f"{np.nanmax(l.current):.3g} A < {l.i_required:.3g} A"
        )
    v_ctrl = min(l.bias_at_margin + guard_band, cond.vdd)
    return cond_h.with_(v_ctrl_store=v_ctrl)
