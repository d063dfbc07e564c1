"""The volatile 6T FinFET SRAM cell (the paper's OSR baseline).

Topology (fin numbers per Table I: N_FL = N_FD = N_FP = 1):

* two p-channel load FinFETs from the (virtual) supply to Q / QB,
* two n-channel driver FinFETs from Q / QB to ground,
* two n-channel access (pass-gate) FinFETs from BL / BLB to Q / QB,
  gated by the word line.

Storage-node and word-line loading capacitances are added explicitly so
the dynamic CV^2 energy is visible in the netlist rather than hidden in
the device model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuit import Capacitor, Circuit
from ..devices.finfet import FinFET, FinFETParams
from ..devices.ptm20 import (
    CGATE_PER_FIN,
    CJUNCTION_PER_FIN,
    NFET_20NM_HP,
    PFET_20NM_HP,
)


@dataclass
class Sram6TCell:
    """Handle to an instantiated 6T cell (flat node/element names)."""

    name: str
    q: str
    qb: str
    vvdd: str
    bl: str
    blb: str
    wl: str
    element_names: Dict[str, str]

    def initial_conditions(self, data: bool, vdd: float) -> Dict[str, float]:
        """IC map writing ``data`` (True = Q high) into the latch."""
        high, low = (vdd, 0.0) if data else (0.0, vdd)
        return {self.q: high, self.qb: low}

    def read_data(self, solution, vdd: float) -> bool:
        """Decode the stored bit from a solved point (True = Q high)."""
        return solution.voltage(self.q) > solution.voltage(self.qb)


def _storage_node_cap(nfl: int, nfd: int, nfp: int) -> float:
    """Capacitance loading one storage node: junctions + opposing gates."""
    junction = (nfl + nfd + nfp) * CJUNCTION_PER_FIN
    gates = (nfl + nfd) * CGATE_PER_FIN  # cross-coupled inverter input
    return junction + gates


def add_sram6t(
    circuit: Circuit,
    name: str,
    vvdd: str,
    bl: str,
    blb: str,
    wl: str,
    nfl: int = 1,
    nfd: int = 1,
    nfp: int = 1,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    extra_node_cap: float = 0.02e-15,
) -> Sram6TCell:
    """Instantiate a 6T cell into ``circuit`` with prefix ``name``.

    Parameters
    ----------
    vvdd, bl, blb, wl:
        Names of the (testbench-owned) supply, bitline and word-line nodes.
    nfl, nfd, nfp:
        Fin numbers of the load, driver and pass-gate FinFETs.
    extra_node_cap:
        Wiring capacitance added to each storage node (farads).

    Returns a :class:`Sram6TCell` handle with the flat node names.
    """
    q = f"{name}.q"
    qb = f"{name}.qb"

    elements = {
        "pul": circuit.add(FinFET(f"{name}.pul", q, qb, vvdd, pfet, nfl)),
        "pur": circuit.add(FinFET(f"{name}.pur", qb, q, vvdd, pfet, nfl)),
        "pdl": circuit.add(FinFET(f"{name}.pdl", q, qb, "0", nfet, nfd)),
        "pdr": circuit.add(FinFET(f"{name}.pdr", qb, q, "0", nfet, nfd)),
        "pgl": circuit.add(FinFET(f"{name}.pgl", bl, wl, q, nfet, nfp)),
        "pgr": circuit.add(FinFET(f"{name}.pgr", blb, wl, qb, nfet, nfp)),
    }

    node_cap = _storage_node_cap(nfl, nfd, nfp) + extra_node_cap
    circuit.add(Capacitor(f"{name}.cq", q, "0", node_cap))
    circuit.add(Capacitor(f"{name}.cqb", qb, "0", node_cap))
    # Word-line gate load presented by this cell's two pass gates.
    circuit.add(Capacitor(f"{name}.cwl", wl, "0", 2 * nfp * CGATE_PER_FIN))

    return Sram6TCell(
        name=name,
        q=q,
        qb=qb,
        vvdd=vvdd,
        bl=bl,
        blb=blb,
        wl=wl,
        element_names={k: e.name for k, e in elements.items()},
    )
