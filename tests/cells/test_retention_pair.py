"""Tests for the PS-FinFET/MTJ retention pair the NV-SRAM cell and the
NV-FF share: its data encoding and the netlist it builds."""

import pytest

from repro.characterize.ff_runner import build_ff_testbench
from repro.characterize.testbench import build_cell_testbench
from repro.devices.mtj import MTJState

AP, P = MTJState.ANTIPARALLEL, MTJState.PARALLEL


def _nvsram():
    tb = build_cell_testbench("nv")
    cell = tb.nv_cell
    return tb.circuit, cell, lambda data: cell.set_mtj_data(tb.circuit, data)


def _nvff():
    circuit, ff = build_ff_testbench()
    return circuit, ff, lambda data: ff.set_mtj_data(circuit, data)


def _testbench():
    tb = build_cell_testbench("nv")
    return tb.circuit, tb.nv_cell, tb.set_mtj_data


class TestEncoding:
    @pytest.mark.parametrize("build", [_nvsram, _nvff, _testbench],
                             ids=["nvsram", "nvff", "testbench"])
    @pytest.mark.parametrize("data, states", [(True, (AP, P)),
                                              (False, (P, AP))])
    def test_round_trip(self, build, data, states):
        circuit, pair, set_mtj_data = build()
        set_mtj_data(data)
        assert (pair.mtj_q(circuit).state,
                pair.mtj_qb(circuit).state) == states
        assert pair.stored_data(circuit) is data
        pair.set_mtj_states(circuit, AP, AP)
        assert pair.stored_data(circuit) is None


class TestNetlist:
    """Element names and order set each bench's stamp plan, so these
    lists (as the benches were built before the pair had one builder)
    guard the characterizations' bit-identity."""

    @pytest.mark.parametrize("bench, size, elements, nodes, mtjs", [
        ("nv", 32,
         ["cell.psq", "cell.psqb", "cell.mtjq", "cell.mtjqb", "cell.csq",
          "cell.csqb"],
         ["cell.sq", "cell.sqb"], ("cell.mtjq", "cell.mtjqb")),
        ("nvff", 44,
         ["ff.psq", "ff.pss", "ff.mtjq", "ff.mtjs", "ff.cnq", "ff.cns"],
         ["ff.nq", "ff.ns"], ("ff.mtjq", "ff.mtjs")),
    ])
    def test_retention_elements_keep_names_and_order(self, bench, size,
                                                     elements, nodes, mtjs):
        if bench == "nv":
            tb = build_cell_testbench("nv")
            circuit, pair = tb.circuit, tb.nv_cell
        else:
            circuit, pair = build_ff_testbench()
        names = circuit.element_names()
        assert len(names) == size
        assert names[-6:] == elements
        assert circuit.node_names()[-2:] == nodes
        assert (pair.mtj_q_name, pair.mtj_qb_name) == mtjs
