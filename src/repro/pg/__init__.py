"""Power-gating architectures: modes, benchmark sequences, energy and BET.

This package is the paper's core contribution layer:

* :mod:`~repro.pg.modes` — operating modes and their bias conditions
  (Table I / Section III).
* :mod:`~repro.pg.scheduler` — turns a mode timeline into the per-line
  bias waveforms a transient testbench consumes.
* :mod:`~repro.pg.sequences` — the OSR / NVPG / NOF benchmark sequences of
  Fig. 5.
* :mod:`~repro.pg.energy` — composes characterised per-mode energies into
  the per-cell E_cyc of Figs. 7-8.
* :mod:`~repro.pg.bet` — break-even-time extraction (Figs. 8-9), including
  the store-free shutdown variant.
* :mod:`~repro.pg.domainsim` — a discrete-event simulation of the whole
  N-row domain that cross-validates the closed-form composition.
"""

from .. import _lazy_exports

_EXPORTS = {
    "Mode": ".modes",
    "OperatingConditions": ".modes",
    "LineLevels": ".modes",
    "bias_for_mode": ".modes",
    "Architecture": ".sequences",
    "BenchmarkSpec": ".sequences",
    "benchmark_sequence": ".sequences",
    "CellEnergyModel": ".energy",
    "CycleEnergyBreakdown": ".energy",
    "break_even_time": ".bet",
    "bet_curve_crossing": ".bet",
    "PowerDomainSimulator": ".domainsim",
    "DomainSimResult": ".domainsim",
    "RowState": ".domainsim",
    "RegisterBankModel": ".registers",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
