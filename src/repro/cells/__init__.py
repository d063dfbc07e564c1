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

from .sram6t import Sram6TCell, add_sram6t
from .nvsram import NvSramCell, add_nvsram
from .powerswitch import PowerSwitch, add_power_switch
from .array import PowerDomain, build_cell_array
from .logic import add_clock_buffer, add_inverter, add_transmission_gate
from .nvff import NvFlipFlop, add_nvff
from .senseamp import SenseAmp, add_senseamp

__all__ = [
    "Sram6TCell",
    "add_sram6t",
    "NvSramCell",
    "add_nvsram",
    "PowerSwitch",
    "add_power_switch",
    "PowerDomain",
    "build_cell_array",
    "add_inverter",
    "add_transmission_gate",
    "add_clock_buffer",
    "NvFlipFlop",
    "add_nvff",
    "SenseAmp",
    "add_senseamp",
]
