"""Circuit description layer: netlists, elements, sources and waveforms.

The central class is :class:`~repro.circuit.netlist.Circuit`, to which
elements (resistors, capacitors, sources, FinFETs, MTJs...) are added by
name.  Node names are free-form strings; ``"0"`` and ``"gnd"`` are the
ground node.  Analyses in :mod:`repro.analysis` consume a finished circuit.
"""

from .netlist import Circuit, GROUND
from .passives import Resistor, Capacitor
from .sources import VoltageSource, CurrentSource
from .switches import VoltageControlledSwitch
from .waveforms import (
    Waveform,
    Constant,
    Pulse,
    PiecewiseLinear,
    Step,
    Sequence,
    Sine,
    Exponential,
)
from .subcircuit import SubCircuit

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VoltageControlledSwitch",
    "Waveform",
    "Constant",
    "Pulse",
    "PiecewiseLinear",
    "Step",
    "Sequence",
    "Sine",
    "Exponential",
    "SubCircuit",
]
