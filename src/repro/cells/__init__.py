"""Bitcell and array builders.

* :func:`~repro.cells.sram6t.add_sram6t` — the volatile 6T FinFET SRAM
  cell (the paper's OSR baseline).
* :func:`~repro.cells.nvsram.add_nvsram` — the NV-SRAM cell of Fig. 2:
  the 6T latch + its retention pair (two PS-FinFETs + two MTJs on the
  SR/CTRL lines), which the NV-FF shares.
* :func:`~repro.cells.powerswitch.add_power_switch` — the header p-channel
  FinFET power switch creating the virtual-VDD rail.
* :class:`~repro.cells.array.PowerDomain` — the N-wordline x M-bit power
  domain abstraction used by the energy composition of Figs. 7-9.
* :func:`~repro.cells.nvff.add_nvff` — the nonvolatile master-slave D
  flip-flop for register/pipeline state (the NV-FF of the authors'
  companion papers), built from :mod:`~repro.cells.logic` primitives.
"""

from .. import _lazy_exports

_EXPORTS = {
    "Sram6TCell": ".sram6t",
    "add_sram6t": ".sram6t",
    "NvSramCell": ".nvsram",
    "add_nvsram": ".nvsram",
    "PowerSwitch": ".powerswitch",
    "add_power_switch": ".powerswitch",
    "PowerDomain": ".array",
    "build_cell_array": ".array",
    "add_inverter": ".logic",
    "add_transmission_gate": ".logic",
    "add_clock_buffer": ".logic",
    "NvFlipFlop": ".nvff",
    "add_nvff": ".nvff",
    "SenseAmp": ".senseamp",
    "add_senseamp": ".senseamp",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
