"""The NV-SRAM cell of the paper's Fig. 2, and its retention pair.

The cell is a 6T latch plus, on each storage node, a **pseudo-spin-FinFET
(PS-FinFET)**: an n-channel FinFET in series with an MTJ.  The PS-FinFET
gates share the **SR** line (V_SR = 0.65 V activates them; 0 V separates
the MTJs from the latch during normal operation) and the far ends of both
MTJs share the **CTRL** line.  :func:`add_retention_pair` builds that
branch pair and :class:`MtjPair` owns its data encoding; the NV-FF
(:mod:`repro.cells.nvff`) carries the same pair on its slave latch.

MTJ orientation and the restore mechanism
-----------------------------------------
The MTJ *pinned* terminal faces the storage node and the *free* terminal
faces the CTRL line.  With the polarity convention of
:class:`repro.devices.mtj.MTJ` (positive free->pinned current switches
AP -> P):

* **H-store** (step 1, CTRL low): the high node drives current
  node -> MTJ -> CTRL, i.e. pinned -> free (negative), switching that MTJ
  **P -> AP** (high resistance).
* **L-store** (step 2, CTRL = V_CTRL = 0.5 V): current flows
  CTRL -> MTJ -> node into the low node, i.e. free -> pinned (positive),
  switching that MTJ **AP -> P** (low resistance).

On wake-up (SR on, CTRL at ground, virtual VDD ramping) the node behind
the low-resistance (P) MTJ is clamped hardest toward CTRL and resolves
low, while the AP-side node rises — regenerating the stored data exactly
as the paper describes ("restored ... owing to the difference in current
drivability" of the two PS-FinFET paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..circuit import Capacitor, Circuit
from ..devices.finfet import FinFET, FinFETParams
from ..devices.mtj import MTJ, MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import (
    CJUNCTION_PER_FIN,
    NFET_20NM_HP,
    PFET_20NM_HP,
)
from .sram6t import Sram6TCell, add_sram6t


@dataclass
class MtjPair:
    """The MTJs of a latch's two retention branches, by element name.

    The one owner of the data encoding: the H-store drives the high
    node's MTJ antiparallel, so a stored 1 (Q high) is
    (MTJ_Q, MTJ_QB) = (AP, P).
    """

    mtj_q_name: str
    mtj_qb_name: str

    def mtj_q(self, circuit: Circuit) -> MTJ:
        """The MTJ on the Q-side branch."""
        return circuit[self.mtj_q_name]

    def mtj_qb(self, circuit: Circuit) -> MTJ:
        """The MTJ on the complementary branch."""
        return circuit[self.mtj_qb_name]

    def set_mtj_states(self, circuit: Circuit, q_state: MTJState,
                       qb_state: MTJState) -> None:
        """Force both MTJ magnetisation states (testbench initialisation)."""
        self.mtj_q(circuit).set_state(q_state)
        self.mtj_qb(circuit).set_state(qb_state)

    def set_mtj_data(self, circuit: Circuit, data: bool) -> None:
        """Program the pair to encode ``data``."""
        q_state = MTJState.ANTIPARALLEL if data else MTJState.PARALLEL
        self.set_mtj_states(circuit, q_state, q_state.opposite)

    def stored_data(self, circuit: Circuit) -> Optional[bool]:
        """Bit the pair encodes (None if both junctions agree)."""
        q_state = self.mtj_q(circuit).state
        if self.mtj_qb(circuit).state is q_state:
            return None
        return q_state is MTJState.ANTIPARALLEL


def add_retention_pair(
    circuit: Circuit,
    name: str,
    nodes: Tuple[str, str],
    sides: Tuple[str, str],
    mid: str,
    sr: str,
    ctrl: str,
    nfet: FinFETParams,
    nfin: int,
    mtj_params: MTJParams,
    states: Tuple[MTJState, MTJState],
) -> MtjPair:
    """Add a PS-FinFET + MTJ retention branch on each of a latch's two
    storage ``nodes`` (Q side first).

    The branch of side ``s`` is the PS-FinFET ``{name}.ps{s}`` (gate on
    ``sr``) from its node to the intermediate node ``{name}.{mid}{s}``,
    the MTJ ``{name}.mtj{s}`` from there to ``ctrl`` (pinned terminal
    toward the node, free terminal on CTRL) starting in its entry of
    ``states``, and the junction capacitor ``{name}.c{mid}{s}``.  Both
    PS-FinFETs go in first, then both MTJs, then both capacitors.
    """
    mids = [f"{name}.{mid}{side}" for side in sides]
    for node, side, node_mid in zip(nodes, sides, mids):
        circuit.add(FinFET(f"{name}.ps{side}", node, sr, node_mid, nfet,
                           nfin))
    mtjs = [circuit.add(MTJ(f"{name}.mtj{side}", ctrl, node_mid, mtj_params,
                            state))
            for side, node_mid, state in zip(sides, mids, states)]
    for side, node_mid in zip(sides, mids):
        circuit.add(Capacitor(f"{name}.c{mid}{side}", node_mid, "0",
                              nfin * CJUNCTION_PER_FIN))
    return MtjPair(mtj_q_name=mtjs[0].name, mtj_qb_name=mtjs[1].name)


@dataclass
class NvSramCell(Sram6TCell, MtjPair):
    """Handle to an instantiated NV-SRAM cell: the 6T latch plus its
    retention pair."""

    sr: str
    ctrl: str
    #: Internal nodes between each PS-FinFET and its MTJ.
    sq: str
    sqb: str


def add_nvsram(
    circuit: Circuit,
    name: str,
    vvdd: str,
    bl: str,
    blb: str,
    wl: str,
    sr: str,
    ctrl: str,
    nfl: int = 1,
    nfd: int = 1,
    nfp: int = 1,
    nfps: int = 1,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    mtj_q_state: MTJState = MTJState.PARALLEL,
    mtj_qb_state: MTJState = MTJState.ANTIPARALLEL,
) -> NvSramCell:
    """Instantiate the Fig. 2 NV-SRAM cell into ``circuit``.

    Parameters
    ----------
    sr, ctrl:
        Testbench nodes driving the PS-FinFET gates and the MTJ far ends.
    nfps:
        Fin number of each PS-FinFET (Table I: 1).
    mtj_q_state, mtj_qb_state:
        Initial magnetisation states.

    Returns an :class:`NvSramCell` handle.
    """
    latch = add_sram6t(
        circuit, name, vvdd, bl, blb, wl,
        nfl=nfl, nfd=nfd, nfp=nfp, nfet=nfet, pfet=pfet,
    )
    pair = add_retention_pair(
        circuit, name, (latch.q, latch.qb), ("q", "qb"), "s", sr, ctrl,
        nfet=nfet, nfin=nfps, mtj_params=mtj_params,
        states=(mtj_q_state, mtj_qb_state),
    )
    return NvSramCell(**vars(latch), **vars(pair), sr=sr, ctrl=ctrl,
                      sq=f"{name}.sq", sqb=f"{name}.sqb")
