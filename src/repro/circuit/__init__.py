"""Circuit description layer: netlists, elements, sources and waveforms.

The central class is :class:`~repro.circuit.netlist.Circuit`, to which
elements (resistors, capacitors, sources, FinFETs, MTJs...) are added by
name.  Node names are free-form strings; ``"0"`` and ``"gnd"`` are the
ground node.  Analyses in :mod:`repro.analysis` consume a finished circuit.
"""

from .. import _lazy_exports

_EXPORTS = {
    "Circuit": ".netlist",
    "GROUND": ".netlist",
    "Resistor": ".passives",
    "Capacitor": ".passives",
    "VoltageSource": ".sources",
    "CurrentSource": ".sources",
    "VoltageControlledSwitch": ".switches",
    "Waveform": ".waveforms",
    "Constant": ".waveforms",
    "Pulse": ".waveforms",
    "PiecewiseLinear": ".waveforms",
    "Step": ".waveforms",
    "Sequence": ".waveforms",
    "Sine": ".waveforms",
    "Exponential": ".waveforms",
    "SubCircuit": ".subcircuit",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
