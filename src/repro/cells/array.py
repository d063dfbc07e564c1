"""Power-domain (cell-array) abstraction.

The paper evaluates a power domain of **N word lines x M bits**; the M
cells on one word line share power switches and are stored/shut down
together, and the N word lines of the domain are accessed — and stored —
**in series**.  Two things live here:

* :class:`PowerDomain` — the arithmetic of that organisation (domain size
  and bitline loading), shared by the characterisation layer and the
  Fig. 7-9 energy composition.
* :func:`build_cell_array` — a real (small) SPICE-level array of NV-SRAM
  cells sharing bitlines/word lines, used by integration tests to check
  that the single-cell testbench results transfer to multi-cell netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import NetlistError
from ..circuit import Circuit, VoltageSource
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from .nvsram import NvSramCell, add_nvsram
from .powerswitch import add_power_switch

#: Bitline wiring + junction capacitance contributed per attached row (F).
CBL_PER_ROW = 0.06e-15
#: Fixed bitline overhead (sense amp / column mux junctions), farads.
CBL_FIXED = 0.5e-15


@dataclass(frozen=True)
class PowerDomain:
    """Geometry bookkeeping for an N x M power domain.

    Attributes
    ----------
    n_wordlines:
        Number of word lines N (rows), each independently power-managed.
    word_bits:
        Word length M in bits (cells per word line).
    """

    n_wordlines: int = 512
    word_bits: int = 32

    def __post_init__(self):
        if self.n_wordlines < 1 or self.word_bits < 1:
            raise NetlistError("PowerDomain dimensions must be >= 1")

    @property
    def num_cells(self) -> int:
        return self.n_wordlines * self.word_bits

    @property
    def size_bytes(self) -> float:
        """Domain capacity in bytes."""
        return self.num_cells / 8.0

    @property
    def bitline_capacitance(self) -> float:
        """Bitline capacitance seen by one cell during read/write (F)."""
        return CBL_FIXED + self.n_wordlines * CBL_PER_ROW

    def __str__(self) -> str:
        return (
            f"PowerDomain(N={self.n_wordlines}, M={self.word_bits}, "
            f"{self.size_bytes:.0f} B)"
        )


def build_cell_array(
    rows: int,
    cols: int,
    vdd: float = 0.9,
    nfsw: int = 7,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
    lint: bool = True,
) -> "ArrayTestbench":
    """Build a small SPICE-level NV-SRAM array with shared lines.

    Each row has its own word line, virtual-VDD rail (fed by a power
    switch of ``nfsw * cols`` fins), SR and CTRL lines; each column has a
    BL/BLB pair shared by all rows.  All control lines are ideal voltage
    sources so integration tests can script arbitrary mode sequences.

    The finished netlist is statically analysed before being returned
    (``lint=True``, the default; see :func:`repro.verify.assert_clean`),
    so a wiring slip in the row/column plumbing fails here with rule
    codes rather than downstream in a transient.
    """
    if rows < 1 or cols < 1:
        raise NetlistError("array dimensions must be >= 1")
    circuit = Circuit(f"nvsram-array-{rows}x{cols}")
    circuit.add(VoltageSource("vdd", "vdd", "0", dc=vdd))

    cells: List[List[NvSramCell]] = []
    for r in range(rows):
        circuit.add(VoltageSource(f"vwl{r}", f"wl{r}", "0", dc=0.0))
        circuit.add(VoltageSource(f"vsr{r}", f"sr{r}", "0", dc=0.0))
        circuit.add(VoltageSource(f"vctrl{r}", f"ctrl{r}", "0", dc=0.0))
        circuit.add(VoltageSource(f"vpg{r}", f"pg{r}", "0", dc=0.0))
        add_power_switch(
            circuit, f"psw{r}", "vdd", f"vvdd{r}", f"pg{r}",
            nfsw=nfsw * cols, pfet=pfet,
        )
        row_cells = []
        for c in range(cols):
            if r == 0:
                circuit.add(VoltageSource(f"vbl{c}", f"bl{c}", "0", dc=vdd))
                circuit.add(VoltageSource(f"vblb{c}", f"blb{c}", "0", dc=vdd))
            cell = add_nvsram(
                circuit, f"cell{r}_{c}",
                vvdd=f"vvdd{r}", bl=f"bl{c}", blb=f"blb{c}",
                wl=f"wl{r}", sr=f"sr{r}", ctrl=f"ctrl{r}",
                nfet=nfet, pfet=pfet, mtj_params=mtj_params,
            )
            row_cells.append(cell)
        cells.append(row_cells)
    if lint:
        from ..verify import assert_clean
        assert_clean(circuit, target=f"array:{rows}x{cols}")
    return ArrayTestbench(circuit=circuit, cells=cells, vdd=vdd)


@dataclass
class ArrayTestbench:
    """A built array netlist plus its cell handles."""

    circuit: Circuit
    cells: List[List[NvSramCell]]
    vdd: float

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def initial_conditions(self, data: List[List[bool]]):
        """IC map storing ``data[r][c]`` in every cell."""
        ic = {}
        for r, row in enumerate(self.cells):
            for c, cell in enumerate(row):
                ic.update(cell.initial_conditions(data[r][c], self.vdd))
        return ic
