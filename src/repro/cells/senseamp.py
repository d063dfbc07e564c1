"""Latch-type sense amplifier for the bitline read path.

The paper's testbench senses reads as a bitline differential; a real
array terminates the bitlines in a regenerative sense amplifier.  This
module provides the standard latch-type SA:

* a cross-coupled inverter pair (``out`` / ``outb``),
* a tail n-FinFET enabling regeneration (``sae`` high fires the latch),
* isolation pass-gates that sample the bitlines onto the latch nodes
  while ``iso`` is high and disconnect them during regeneration.

Operation: precharge/track with ``iso`` high and ``sae`` low (the latch
nodes follow BL/BLB), then open ``iso`` and raise ``sae`` — the latch
regenerates the sampled differential to full rails within ~100 ps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import Capacitor, Circuit
from ..devices.finfet import FinFET, FinFETParams
from ..devices.ptm20 import (
    CJUNCTION_PER_FIN,
    NFET_20NM_HP,
    PFET_20NM_HP,
)


@dataclass
class SenseAmp:
    """Handle to an instantiated sense amplifier."""

    name: str
    bl: str
    blb: str
    out: str
    outb: str
    sae: str
    iso: str
    vvdd: str

    def read_output(self, solution) -> bool:
        """Resolved data (True = BL side was high)."""
        return solution.voltage(self.out) > solution.voltage(self.outb)

    def differential(self, solution) -> float:
        """V(out) - V(outb)."""
        return solution.voltage(self.out) - solution.voltage(self.outb)


def add_senseamp(
    circuit: Circuit,
    name: str,
    bl: str,
    blb: str,
    sae: str,
    iso: str,
    vvdd: str,
    nfin_latch: int = 1,
    nfin_tail: int = 2,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
) -> SenseAmp:
    """Instantiate a latch-type sense amplifier under prefix ``name``.

    Parameters
    ----------
    bl, blb:
        Bitlines to sample (testbench- or array-owned nodes).
    sae:
        Sense-amp enable (tail device gate).
    iso:
        Isolation control: high = sample bitlines, low = regenerate.
    nfin_tail:
        Tail device fins; wider = faster regeneration.
    """
    out = f"{name}.out"
    outb = f"{name}.outb"
    tail = f"{name}.tail"

    # Cross-coupled pair with a common tail.
    circuit.add(FinFET(f"{name}.pu1", out, outb, vvdd, pfet, nfin_latch))
    circuit.add(FinFET(f"{name}.pu2", outb, out, vvdd, pfet, nfin_latch))
    circuit.add(FinFET(f"{name}.pd1", out, outb, tail, nfet, nfin_latch))
    circuit.add(FinFET(f"{name}.pd2", outb, out, tail, nfet, nfin_latch))
    circuit.add(FinFET(f"{name}.tail", tail, sae, "0", nfet, nfin_tail))

    # Bitline isolation/sampling gates.
    circuit.add(FinFET(f"{name}.iso1", bl, iso, out, nfet, nfin_latch))
    circuit.add(FinFET(f"{name}.iso2", blb, iso, outb, nfet, nfin_latch))

    load = 3 * nfin_latch * CJUNCTION_PER_FIN
    circuit.add(Capacitor(f"{name}.cout", out, "0", load))
    circuit.add(Capacitor(f"{name}.coutb", outb, "0", load))
    circuit.add(Capacitor(f"{name}.ctail", tail, "0",
                          2 * nfin_latch * CJUNCTION_PER_FIN))

    return SenseAmp(
        name=name, bl=bl, blb=blb, out=out, outb=outb,
        sae=sae, iso=iso, vvdd=vvdd,
    )
