"""Tests for resistors and capacitors (via solved circuits)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.circuit import Capacitor, Circuit, Resistor, Step, VoltageSource
from repro.analysis import operating_point, transient


class TestResistor:
    def test_validation(self):
        with pytest.raises(NetlistError):
            Resistor("r", "a", "0", 0.0)
        with pytest.raises(NetlistError):
            Resistor("r", "a", "0", -5.0)

    def test_divider(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=2.0))
        c.add(Resistor("r1", "in", "mid", 3000))
        c.add(Resistor("r2", "mid", "0", 1000))
        sol = operating_point(c)
        assert sol.voltage("mid") == pytest.approx(0.5, rel=1e-6)

    def test_current_and_power(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        r = c.add(Resistor("r1", "in", "0", 500))
        sol = operating_point(c)
        assert r.current(sol) == pytest.approx(2e-3, rel=1e-6)
        assert r.power(sol) == pytest.approx(2e-3, rel=1e-6)

    @given(
        r1=st.floats(min_value=10, max_value=1e6),
        r2=st.floats(min_value=10, max_value=1e6),
        v=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_divider_property(self, r1, r2, v):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=v))
        c.add(Resistor("r1", "in", "mid", r1))
        c.add(Resistor("r2", "mid", "0", r2))
        sol = operating_point(c)
        assert sol.voltage("mid") == pytest.approx(
            v * r2 / (r1 + r2), rel=1e-5, abs=1e-9
        )


class TestCapacitor:
    def test_validation(self):
        with pytest.raises(NetlistError):
            Capacitor("c", "a", "0", 0.0)

    def test_open_in_dc(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "out", 1000))
        c.add(Capacitor("cl", "out", "0", 1e-12))
        sol = operating_point(c)
        # No DC path through the cap: the output floats to the input.
        assert sol.voltage("out") == pytest.approx(1.0, rel=1e-4)

    def test_rc_charging_matches_analytic(self):
        r_val, c_val = 1e3, 1e-12
        tau = r_val * c_val
        c = Circuit()
        c.add(VoltageSource("v", "in", "0",
                            waveform=Step(0.0, 1.0, t_step=0.0, t_rise=1e-13)))
        c.add(Resistor("r", "in", "out", r_val))
        c.add(Capacitor("cl", "out", "0", c_val))
        result = transient(c, 8 * tau)
        for frac in (1.0, 2.0, 4.0):
            measured = result.sample("out", frac * tau)
            assert measured == pytest.approx(1 - np.exp(-frac), rel=5e-3)

    def test_rc_discharge(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0",
                            waveform=Step(1.0, 0.0, t_step=1e-9, t_rise=1e-13)))
        c.add(Resistor("r", "in", "out", 1e3))
        c.add(Capacitor("cl", "out", "0", 1e-12))
        result = transient(c, 6e-9)
        assert result.sample("out", 1e-9) == pytest.approx(1.0, abs=1e-3)
        assert result.sample("out", 2e-9) == pytest.approx(np.exp(-1), rel=1e-2)

    def test_energy_conservation_rc(self):
        """Source energy = resistor dissipation + capacitor stored energy."""
        r_val, c_val, v_step = 2e3, 2e-12, 1.0
        c = Circuit()
        c.add(VoltageSource("v", "in", "0",
                            waveform=Step(0.0, v_step, 0.0, 1e-13)))
        c.add(Resistor("r", "in", "out", r_val))
        c.add(Capacitor("cl", "out", "0", c_val))
        result = transient(c, 40 * r_val * c_val)
        e_source = result.energy(["v"])
        # After full charge: E_src = C V^2 (half stored, half dissipated).
        assert e_source == pytest.approx(c_val * v_step**2, rel=1e-2)


class TestRCLadderProperty:
    @given(
        rs=st.lists(st.floats(min_value=100, max_value=1e5), min_size=2,
                    max_size=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_ladder_final_value_reaches_input(self, rs):
        """Any RC ladder driven by a step settles to the source level."""
        c = Circuit()
        c.add(VoltageSource("v", "n0", "0",
                            waveform=Step(0.0, 1.0, 0.0, 1e-13)))
        tau_total = 0.0
        for i, r in enumerate(rs):
            c.add(Resistor(f"r{i}", f"n{i}", f"n{i+1}", r))
            c.add(Capacitor(f"c{i}", f"n{i+1}", "0", 1e-13))
            tau_total += r * 1e-13 * len(rs)
        result = transient(c, 60 * tau_total)
        final = result.voltage(f"n{len(rs)}")[-1]
        assert final == pytest.approx(1.0, abs=2e-3)
