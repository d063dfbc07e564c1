"""Static CMOS logic primitives used by the flip-flop builders.

Small builder functions in the style of :mod:`repro.cells.sram6t`: each
instantiates FinFETs (and explicit node capacitance) into a parent
circuit under a name prefix and returns the output node name, so larger
cells compose by string wiring.
"""

from __future__ import annotations

from typing import Tuple

from ..circuit import Capacitor, Circuit
from ..devices.finfet import FinFET, FinFETParams
from ..devices.ptm20 import (
    CJUNCTION_PER_FIN,
    NFET_20NM_HP,
    PFET_20NM_HP,
)


def add_inverter(
    circuit: Circuit,
    name: str,
    input_node: str,
    output_node: str,
    vvdd: str,
    nfin_p: int = 1,
    nfin_n: int = 1,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
) -> str:
    """A static CMOS inverter; returns the output node name."""
    circuit.add(FinFET(f"{name}.pu", output_node, input_node, vvdd,
                       pfet, nfin_p))
    circuit.add(FinFET(f"{name}.pd", output_node, input_node, "0",
                       nfet, nfin_n))
    load = (nfin_p + nfin_n) * CJUNCTION_PER_FIN
    circuit.add(Capacitor(f"{name}.cout", output_node, "0", load))
    return output_node


def add_transmission_gate(
    circuit: Circuit,
    name: str,
    a: str,
    b: str,
    clk: str,
    clkb: str,
    nfin: int = 1,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
) -> None:
    """A CMOS transmission gate between ``a`` and ``b``.

    Conducts when ``clk`` is high (n-device) and ``clkb`` low (p-device).
    """
    circuit.add(FinFET(f"{name}.tn", a, clk, b, nfet, nfin))
    circuit.add(FinFET(f"{name}.tp", a, clkb, b, pfet, nfin))
    circuit.add(Capacitor(f"{name}.cab", b, "0",
                          2 * nfin * CJUNCTION_PER_FIN))


def add_clock_buffer(
    circuit: Circuit,
    name: str,
    clk_in: str,
    vvdd: str,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
) -> Tuple[str, str]:
    """Local clock inverter pair; returns (clk_internal, clkb_internal).

    ``clkb`` is one inversion from the input, ``clk`` two, matching the
    usual flip-flop local clocking and giving both phases finite slew.
    """
    clkb = f"{name}.clkb"
    clk = f"{name}.clk"
    add_inverter(circuit, f"{name}.i1", clk_in, clkb, vvdd,
                 nfet=nfet, pfet=pfet)
    add_inverter(circuit, f"{name}.i2", clkb, clk, vvdd,
                 nfet=nfet, pfet=pfet)
    return clk, clkb
