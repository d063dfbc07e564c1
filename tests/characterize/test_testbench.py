"""Tests for the shared single-cell testbench."""

import pytest

from repro.errors import CharacterizationError
from repro.analysis import operating_point
from repro.cells import PowerDomain
from repro.characterize.testbench import (
    LINE_SOURCES,
    SUPPLY_SOURCES,
    build_cell_testbench,
)
from repro.devices.mtj import MTJState
from repro.pg.modes import Mode, OperatingConditions, bias_for_mode


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CharacterizationError):
            build_cell_testbench("8t")

    def test_nv_has_mtjs_6t_does_not(self):
        nv = build_cell_testbench("nv")
        vt = build_cell_testbench("6t")
        assert "cell.mtjq" in nv.circuit
        assert "cell.mtjq" not in vt.circuit

    def test_all_line_sources_exist(self):
        tb = build_cell_testbench("nv")
        for source in LINE_SOURCES.values():
            assert source in tb.circuit
        for source in SUPPLY_SOURCES:
            assert source in tb.circuit

    def test_bitline_cap_follows_domain(self):
        small = build_cell_testbench("nv", domain=PowerDomain(32, 32))
        large = build_cell_testbench("nv", domain=PowerDomain(2048, 32))
        assert (large.circuit["c_bl"].capacitance
                > small.circuit["c_bl"].capacitance)

    def test_nfsw_override(self):
        tb = build_cell_testbench("nv", nfsw=3)
        assert tb.circuit["psw.sw"].nfin == 3

    def test_core_accessor(self):
        nv = build_cell_testbench("nv")
        vt = build_cell_testbench("6t")
        assert nv.cell.q == "cell.q"
        assert vt.cell.q == "cell.q"
        with pytest.raises(CharacterizationError):
            vt.nv_cell


class TestModeApplication:
    def test_standby_biases(self):
        tb = build_cell_testbench("nv")
        tb.apply_mode(Mode.STANDBY)
        assert tb.circuit["vrail"].dc == 0.9
        assert tb.circuit["vctrl"].dc == 0.07
        assert tb.circuit["vpg"].dc == 0.0

    def test_shutdown_biases(self):
        tb = build_cell_testbench("nv")
        tb.apply_mode(Mode.SHUTDOWN)
        assert tb.circuit["vpg"].dc == 1.0

    def test_volatile_masks_sr_ctrl(self):
        tb = build_cell_testbench("6t")
        tb.apply_mode(Mode.STORE_H)
        assert tb.circuit["vsr"].dc == 0.0
        assert tb.circuit["vctrl"].dc == 0.0

    def test_op_converges_in_every_mode(self):
        for mode in Mode:
            tb = build_cell_testbench("nv")
            tb.apply_mode(mode)
            ic = None if mode is Mode.SHUTDOWN else tb.initial_conditions(True)
            sol = operating_point(tb.circuit, ic=ic)
            assert all(abs(v) < 1.3 for v in sol.voltages().values())


class TestMtjData:
    def test_set_mtj_data_encoding(self):
        tb = build_cell_testbench("nv")
        tb.set_mtj_data(True)
        assert tb.nv_cell.mtj_q(tb.circuit).state is MTJState.ANTIPARALLEL
        assert tb.nv_cell.mtj_qb(tb.circuit).state is MTJState.PARALLEL
        tb.set_mtj_data(False)
        assert tb.nv_cell.mtj_q(tb.circuit).state is MTJState.PARALLEL

    def test_initial_conditions_include_vvdd(self):
        tb = build_cell_testbench("nv")
        ic = tb.initial_conditions(True)
        assert ic["vvdd"] == tb.cond.vdd
        assert ic["cell.q"] == tb.cond.vdd
        assert ic["cell.qb"] == 0.0


class TestStoreStep:
    @pytest.mark.parametrize("mode,states,junction", [
        (Mode.STORE_H, (MTJState.PARALLEL, MTJState.ANTIPARALLEL), "mtj_q"),
        (Mode.STORE_L, (MTJState.ANTIPARALLEL, MTJState.ANTIPARALLEL),
         "mtj_qb"),
    ])
    def test_biases_the_step_from_its_start_states(self, mode, states,
                                                   junction):
        tb = build_cell_testbench("nv")
        tb.set_mtj_data(True)        # (AP, P): neither step's start
        switched = tb.store_step(mode)
        cell = tb.nv_cell
        assert (cell.mtj_q(tb.circuit).state,
                cell.mtj_qb(tb.circuit).state) == states
        assert switched is getattr(cell, junction)(tb.circuit)
        for line, level in bias_for_mode(mode, tb.cond).as_dict().items():
            assert tb.circuit[LINE_SOURCES[line]].dc == level

    def test_volatile_cell_has_no_store_step(self):
        with pytest.raises(CharacterizationError):
            build_cell_testbench("6t").store_step(Mode.STORE_H)


class TestSupplyPower:
    def test_is_a_python_float(self):
        tb = build_cell_testbench("6t")
        power = tb.supply_power(tb.settle(Mode.STANDBY))
        assert type(power) is float
        assert power > 0
