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

from .. import _lazy_exports

_EXPORTS = {
    "CellCharacterization": ".data",
    "CellPoint": ".cache",
    "CellTestbench": ".testbench",
    "build_cell_testbench": ".testbench",
    "characterize_cell": ".runner",
    "leakage_vs_vctrl": ".leakage",
    "store_current_vs_vsr": ".store",
    "store_current_vs_vctrl": ".store",
    "derive_store_biases": ".store",
    "verify_store_bias_choice": ".store",
    "vvdd_vs_nfsw": ".vvdd",
    "butterfly_curve": ".snm",
    "static_noise_margin": ".snm",
    "RetentionSweep": ".retention",
    "retention_voltage_sweep": ".retention",
    "VariationModel": ".variability",
    "store_yield_analysis": ".variability",
    "read_snm_distribution": ".variability",
    "FlipFlopCharacterization": ".data",
    "characterize_nvff": ".ff_runner",
    "DisturbReport": ".disturb",
    "nof_access_disturb": ".disturb",
    "nvpg_access_disturb": ".disturb",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
