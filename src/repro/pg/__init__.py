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

from .modes import Mode, OperatingConditions, LineLevels, bias_for_mode
from .sequences import (
    Architecture,
    BenchmarkSpec,
    benchmark_sequence,
)
from .energy import CellEnergyModel, CycleEnergyBreakdown
from .bet import break_even_time, bet_curve_crossing
from .domainsim import DomainSimResult, PowerDomainSimulator, RowState
from .registers import RegisterBankModel

__all__ = [
    "Mode",
    "OperatingConditions",
    "LineLevels",
    "bias_for_mode",
    "Architecture",
    "BenchmarkSpec",
    "benchmark_sequence",
    "CellEnergyModel",
    "CycleEnergyBreakdown",
    "break_even_time",
    "bet_curve_crossing",
    "PowerDomainSimulator",
    "DomainSimResult",
    "RowState",
    "RegisterBankModel",
]
