"""Header p-channel FinFET power switch (virtual-VDD architecture).

The paper gates each word line's M cells through header p-FinFET power
switches (Fig. 2).  The switch gate is driven to:

* 0 V        — switch on: normal operation / store / restore,
* V_DD       — switch off: ordinary shutdown,
* V_PG = 1.0 V — **super cutoff** [20]: over-driving the gate above the
  rail reverse-biases the switch and crushes the shutdown leakage by
  orders of magnitude (the Fig. 6(c) effect).

``nfsw`` is the fin number *per cell* (Fig. 4 sweeps it; the paper settles
on 7 so the virtual rail retains 97 % of VDD during the store operation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import Capacitor, Circuit
from ..devices.finfet import FinFET, FinFETParams
from ..devices.ptm20 import CJUNCTION_PER_FIN, PFET_20NM_HP


@dataclass
class PowerSwitch:
    """Handle to an instantiated power switch."""

    name: str
    vdd: str
    vvdd: str
    gate: str
    nfsw: int
    element_name: str


def add_power_switch(
    circuit: Circuit,
    name: str,
    vdd: str,
    vvdd: str,
    gate: str,
    nfsw: int = 7,
    pfet: FinFETParams = PFET_20NM_HP,
) -> PowerSwitch:
    """Instantiate a header power switch between ``vdd`` and ``vvdd``.

    Parameters
    ----------
    gate:
        Node carrying the power-gating control voltage (0 = on,
        VDD = off, ``OperatingConditions.v_pg_super`` = super cutoff).
    nfsw:
        Fin number of the switch (per cell).
    """
    element = circuit.add(FinFET(f"{name}.sw", vvdd, gate, vdd, pfet, nfsw))
    # Diffusion capacitance loading the virtual rail.
    circuit.add(
        Capacitor(f"{name}.cvvdd", vvdd, "0", max(nfsw, 1) * CJUNCTION_PER_FIN)
    )
    return PowerSwitch(
        name=name,
        vdd=vdd,
        vvdd=vvdd,
        gate=gate,
        nfsw=nfsw,
        element_name=element.name,
    )
