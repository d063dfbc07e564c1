"""Nonvolatile D flip-flop (NV-FF) with PS-FinFET/MTJ retention.

The paper's NVPG architecture covers both memory arrays (NV-SRAM) and
pipeline/register state, the latter held in NV-FFs built on the same
pseudo-spin-transistor principle (the authors' refs [5], [6]).  This
module provides that substrate: a positive-edge-triggered master-slave
D flip-flop whose *slave* latch carries two PS-FinFET + MTJ branches on
the SR/CTRL lines, exactly like the NV-SRAM storage nodes.

Topology (all devices one fin):

* local clock buffer producing complementary phases with finite slew;
* master latch: input transmission gate (transparent at CLK low), two
  inverters, feedback transmission gate (closed at CLK high);
* slave latch: transfer gate (transparent at CLK high), two inverters,
  feedback gate (closed at CLK low), storage nodes ``S`` (= QB sense),
  ``Q`` and ``S3`` (= Q complement, the second inverter's output);
* the NV-SRAM cell's retention pair
  (:func:`~repro.cells.nvsram.add_retention_pair`): PS-FinFETs from
  ``Q`` / ``S3`` through MTJs to the shared CTRL line, gated by SR, with
  ``mtj_qb`` on ``S3``.  Both retention taps sit on *directly driven*
  inverter outputs — tapping the transmission-gate node ``S`` instead
  would leave the L-store current sinking through the feedback gate's
  series resistance and starve it below the MTJ critical current.

Store and restore use the same two-step store / VVDD-pull-up recall as
the NV-SRAM cell, executed with the clock parked low so the slave
feedback loop is engaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuit import Circuit
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from .logic import add_clock_buffer, add_inverter, add_transmission_gate
from .nvsram import MtjPair, add_retention_pair


@dataclass
class NvFlipFlop(MtjPair):
    """Handle to an instantiated NV-FF (flat node/element names); its
    retention pair sits on ``Q`` and ``S3``."""

    name: str
    d: str
    clk: str
    q: str
    #: Slave-latch input node (behind the transfer gate; Q complement).
    s: str
    #: Second slave inverter output (Q complement, directly driven) —
    #: the node carrying the complementary retention branch.
    s3: str
    vvdd: str
    sr: str
    ctrl: str

    def read_q(self, solution, vdd: float) -> bool:
        """Decode the slave-latch output (True = Q high)."""
        return solution.voltage(self.q) > solution.voltage(self.s)

    def initial_conditions(self, data: bool, vdd: float) -> Dict[str, float]:
        """IC map placing ``data`` in the slave latch (and the master,
        so a low clock does not immediately overwrite it)."""
        high, low = (vdd, 0.0) if data else (0.0, vdd)
        return {
            self.q: high,
            self.s: low,
            # Master consistent with the slave: m2 feeds the slave gate.
            f"{self.name}.m1": low,
            f"{self.name}.m2": high,
        }


def add_nvff(
    circuit: Circuit,
    name: str,
    d: str,
    clk: str,
    vvdd: str,
    sr: str,
    ctrl: str,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    mtj_q_state: MTJState = MTJState.PARALLEL,
    mtj_qb_state: MTJState = MTJState.ANTIPARALLEL,
) -> NvFlipFlop:
    """Instantiate an NV-FF into ``circuit`` under prefix ``name``.

    Parameters
    ----------
    d, clk:
        Data and clock input nodes (testbench-owned).
    vvdd:
        Virtual supply rail (behind a power switch for PG studies).
    sr, ctrl:
        Nonvolatile-retention control lines shared with other cells.
    """
    clk_i, clkb_i = add_clock_buffer(circuit, f"{name}.ckbuf", clk, vvdd,
                                     nfet=nfet, pfet=pfet)
    m1 = f"{name}.m1"
    m2 = f"{name}.m2"
    m3 = f"{name}.m3"
    s_in = f"{name}.s"
    q = f"{name}.q"
    s3 = f"{name}.s3"

    # Master latch: transparent while CLK is low.
    add_transmission_gate(circuit, f"{name}.tgd", d, m1,
                          clk=clkb_i, clkb=clk_i, nfet=nfet, pfet=pfet)
    add_inverter(circuit, f"{name}.mi1", m1, m2, vvdd, nfet=nfet, pfet=pfet)
    add_inverter(circuit, f"{name}.mi2", m2, m3, vvdd, nfet=nfet, pfet=pfet)
    add_transmission_gate(circuit, f"{name}.tgmf", m3, m1,
                          clk=clk_i, clkb=clkb_i, nfet=nfet, pfet=pfet)

    # Slave latch: takes the master value at the rising edge.
    add_transmission_gate(circuit, f"{name}.tgs", m2, s_in,
                          clk=clk_i, clkb=clkb_i, nfet=nfet, pfet=pfet)
    add_inverter(circuit, f"{name}.si1", s_in, q, vvdd, nfet=nfet, pfet=pfet)
    add_inverter(circuit, f"{name}.si2", q, s3, vvdd, nfet=nfet, pfet=pfet)
    add_transmission_gate(circuit, f"{name}.tgsf", s3, s_in,
                          clk=clkb_i, clkb=clk_i, nfet=nfet, pfet=pfet)

    # Nonvolatile retention branches on the directly driven slave nodes.
    pair = add_retention_pair(
        circuit, name, (q, s3), ("q", "s"), "n", sr, ctrl,
        nfet=nfet, nfin=1, mtj_params=mtj_params,
        states=(mtj_q_state, mtj_qb_state),
    )
    return NvFlipFlop(**vars(pair), name=name, d=d, clk=clk, q=q, s=s_in,
                      s3=s3, vvdd=vvdd, sr=sr, ctrl=ctrl)
