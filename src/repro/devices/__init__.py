"""Device compact models: FinFETs (20 nm PTM-like card) and STT-MTJs.

* :class:`~repro.devices.finfet.FinFET` — an EKV-style continuous compact
  model with fin-count scaling, used for every transistor in the cells.
* :mod:`~repro.devices.ptm20` — the 20 nm technology card calibrated to
  public PTM-class headline figures (Ion/Ioff per fin, SS, DIBL).
* :class:`~repro.devices.mtj.MTJ` — the spin-transfer-torque magnetic
  tunnel junction macromodel of the paper's Table I: bias-dependent TMR
  resistance plus current-induced magnetisation switching dynamics.
"""

from .. import _lazy_exports

_EXPORTS = {
    "FinFET": ".finfet",
    "FinFETParams": ".finfet",
    "NFET_20NM_HP": ".ptm20",
    "PFET_20NM_HP": ".ptm20",
    "technology_summary": ".ptm20",
    "MTJ": ".mtj",
    "MTJParams": ".mtj",
    "MTJState": ".mtj",
    "MTJ_TABLE1": ".mtj",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
