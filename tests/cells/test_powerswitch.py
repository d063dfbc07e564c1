"""Tests for the header power switch and super cutoff."""

import pytest

from repro.analysis import operating_point
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.cells import add_power_switch
from repro.pg.modes import OperatingConditions

VDD = 0.9


def _bench(gate_v, nfsw=7, load=1e8):
    c = Circuit("psw")
    c.add(VoltageSource("vdd", "vdd", "0", dc=VDD))
    c.add(VoltageSource("vpg", "pg", "0", dc=gate_v))
    handle = add_power_switch(c, "psw", "vdd", "vvdd", "pg", nfsw=nfsw)
    c.add(Resistor("rl", "vvdd", "0", load))
    return c, handle


class TestOnState:
    def test_vvdd_tracks_vdd(self):
        c, _ = _bench(0.0)
        sol = operating_point(c)
        assert sol.voltage("vvdd") > 0.99 * VDD

    def test_more_fins_less_droop_under_load(self):
        heavy = 2e4  # ~45 uA load
        droops = []
        for nfsw in (1, 4, 8):
            c, _ = _bench(0.0, nfsw=nfsw, load=heavy)
            sol = operating_point(c)
            droops.append(VDD - sol.voltage("vvdd"))
        assert droops[0] > droops[1] > droops[2] > 0


class TestOffState:
    def test_nominal_off_rail_floats_to_leakage_balance(self):
        """With V_PG = VDD the switch still leaks: a light load leaves
        the virtual rail floating at a mid level (the paper's motivation
        for super cutoff), while a heavier load pulls it low."""
        c_light, _ = _bench(VDD, load=1e8)
        assert 0.2 * VDD < operating_point(c_light).voltage("vvdd") < VDD
        c_heavy, _ = _bench(VDD, load=1e6)
        assert operating_point(c_heavy).voltage("vvdd") < 0.2 * VDD

    def test_super_cutoff_leaks_much_less(self):
        c_nom, _ = _bench(VDD, load=1e8)
        c_sup, _ = _bench(OperatingConditions().v_pg_super, load=1e8)
        i_nom = -operating_point(c_nom).branch_current("vdd")
        i_sup = -operating_point(c_sup).branch_current("vdd")
        assert i_sup < i_nom / 5.0

    def test_super_cutoff_voltage_constant(self):
        assert OperatingConditions().v_pg_super == 1.0  # the paper's V_PG


class TestHandle:
    def test_handle_fields(self):
        c, handle = _bench(0.0, nfsw=5)
        assert handle.nfsw == 5
        assert handle.vvdd == "vvdd"
        assert handle.element_name in c
        assert "psw.cvvdd" in c
