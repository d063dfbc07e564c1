"""Tests for the smooth voltage-controlled switch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.circuit import (
    Circuit,
    Resistor,
    Step,
    VoltageControlledSwitch,
    VoltageSource,
)
from repro.analysis import operating_point, transient


def _switch(r_on=100.0, r_off=1e9, v_on=1.0, v_off=0.0):
    return VoltageControlledSwitch("s", "p", "n", "cp", "0",
                                   r_on=r_on, r_off=r_off,
                                   v_on=v_on, v_off=v_off)


class TestConductanceLaw:
    def test_endpoints(self):
        s = _switch()
        assert s.conductance_at(0.0) == pytest.approx(1e-9)
        assert s.conductance_at(1.0) == pytest.approx(1e-2)
        assert s.conductance_at(-5.0) == pytest.approx(1e-9)
        assert s.conductance_at(5.0) == pytest.approx(1e-2)

    def test_monotonic(self):
        s = _switch()
        vcs = np.linspace(-0.5, 1.5, 101)
        gs = [s.conductance_at(v) for v in vcs]
        assert all(g1 <= g2 * (1 + 1e-12) for g1, g2 in zip(gs, gs[1:]))

    def test_inverted_switch(self):
        s = _switch(v_on=0.0, v_off=1.0)
        assert s.conductance_at(0.0) == pytest.approx(1e-2)
        assert s.conductance_at(1.0) == pytest.approx(1e-9)

    def test_derivative_matches_finite_difference(self):
        s = _switch()
        for vc in (0.1, 0.25, 0.5, 0.75, 0.9):
            h = 1e-7
            fd = (s.conductance_at(vc + h) - s.conductance_at(vc - h)) / (2 * h)
            assert s._dconductance(vc) == pytest.approx(fd, rel=1e-4)

    def test_derivative_zero_outside_window(self):
        s = _switch()
        assert s._dconductance(-0.1) == 0.0
        assert s._dconductance(1.1) == 0.0

    def test_batch_card_and_stamp_share_the_construction_logs(self):
        s = _switch()
        log_off = math.log(s.g_off)
        log_span = math.log(s.g_on) - log_off
        card = s.batch_card()
        assert card[4, 0] == log_off
        assert card[5, 0] == log_span
        # Mid-window the smoothstep is 0.5: the law is exp(log_off +
        # 0.5 * log_span), bit for bit.
        assert s.conductance_at(0.5) == math.exp(log_off + 0.5 * log_span)

    def test_validation(self):
        with pytest.raises(NetlistError):
            VoltageControlledSwitch("s", "p", "n", "c", "0", r_on=0.0)
        with pytest.raises(NetlistError):
            VoltageControlledSwitch("s", "p", "n", "c", "0",
                                    v_on=0.5, v_off=0.5)


class TestInCircuit:
    def _build(self, control_v):
        c = Circuit()
        c.add(VoltageSource("vin", "p", "0", dc=1.0))
        c.add(VoltageSource("vc", "cp", "0", dc=control_v))
        c.add(VoltageControlledSwitch("s", "p", "out", "cp", "0",
                                      r_on=100.0, r_off=1e12,
                                      v_on=1.0, v_off=0.0))
        c.add(Resistor("rl", "out", "0", 100.0))
        return c

    def test_on_state_divides(self):
        sol = operating_point(self._build(1.0))
        assert sol.voltage("out") == pytest.approx(0.5, rel=1e-4)

    def test_off_state_blocks(self):
        sol = operating_point(self._build(0.0))
        assert sol.voltage("out") == pytest.approx(0.0, abs=1e-6)

    def test_current_helper(self):
        c = self._build(1.0)
        sol = operating_point(c)
        assert c["s"].current(sol) == pytest.approx(5e-3, rel=1e-3)

    def test_transient_switching(self):
        c = Circuit()
        c.add(VoltageSource("vin", "p", "0", dc=1.0))
        c.add(VoltageSource("vc", "cp", "0",
                            waveform=Step(0.0, 1.0, 1e-9, 1e-10)))
        c.add(VoltageControlledSwitch("s", "p", "out", "cp", "0",
                                      r_on=100.0, r_off=1e12,
                                      v_on=1.0, v_off=0.0))
        c.add(Resistor("rl", "out", "0", 100.0))
        result = transient(c, 3e-9)
        assert result.sample("out", 0.5e-9) == pytest.approx(0.0, abs=1e-5)
        assert result.sample("out", 2.5e-9) == pytest.approx(0.5, rel=1e-3)

    @given(vc=st.floats(min_value=-1.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_output_between_rails_any_control(self, vc):
        sol = operating_point(self._build(vc))
        assert -1e-9 <= sol.voltage("out") <= 0.5 + 1e-6
