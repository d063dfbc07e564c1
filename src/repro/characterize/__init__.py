"""Cell characterisation: SPICE-level extraction of per-mode quantities.

This layer runs the circuit simulator on single-cell testbenches and
distils the numbers the energy composition of Figs. 7-9 needs:

* :func:`~repro.characterize.runner.characterize_cell` — read/write/store/
  restore energies, per-mode static powers, delays and functional checks,
  returned as a :class:`~repro.characterize.data.CellCharacterization`
  and cached under its :class:`~repro.characterize.cache.CellPoint`.
* :mod:`~repro.characterize.leakage` — the Fig. 3(a) leakage-vs-V_CTRL
  sweeps.
* :mod:`~repro.characterize.store` — the Fig. 3(b)/(c) store-current
  sweeps.
* :mod:`~repro.characterize.vvdd` — the Fig. 4 power-switch sizing sweep.
* :mod:`~repro.characterize.snm` — static-noise-margin butterfly analysis
  (the design constraint the paper cites for the (1,1) fin choice).
"""

from .data import CellCharacterization, FlipFlopCharacterization
from .testbench import CellTestbench, build_cell_testbench
from .cache import CellPoint
from .runner import characterize_cell
from .leakage import leakage_vs_vctrl
from .store import (
    store_current_vs_vsr,
    store_current_vs_vctrl,
    derive_store_biases,
    verify_store_bias_choice,
)
from .vvdd import vvdd_vs_nfsw
from .snm import butterfly_curve, static_noise_margin
from .retention import RetentionSweep, retention_voltage_sweep
from .variability import (
    VariationModel,
    store_yield_analysis,
    read_snm_distribution,
)
from .ff_runner import characterize_nvff
from .disturb import DisturbReport, nof_access_disturb, nvpg_access_disturb

__all__ = [
    "CellCharacterization",
    "CellPoint",
    "CellTestbench",
    "build_cell_testbench",
    "characterize_cell",
    "leakage_vs_vctrl",
    "store_current_vs_vsr",
    "store_current_vs_vctrl",
    "derive_store_biases",
    "verify_store_bias_choice",
    "vvdd_vs_nfsw",
    "butterfly_curve",
    "static_noise_margin",
    "RetentionSweep",
    "retention_voltage_sweep",
    "VariationModel",
    "store_yield_analysis",
    "read_snm_distribution",
    "FlipFlopCharacterization",
    "characterize_nvff",
    "DisturbReport",
    "nof_access_disturb",
    "nvpg_access_disturb",
]
