"""Tests for the damped Newton solver."""

import math

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.analysis.mna import Context
from repro.analysis.solver import NewtonOptions, newton_solve
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.circuit.netlist import Element


class ExponentialDevice(Element):
    """A diode-like element: I = Is (exp(V/vt) - 1) from p to n.

    It leaves ``is_linear`` at the base-class default, as a custom
    element that forgets the flag would.
    """

    def __init__(self, name, p, n, i_sat=1e-12, vt=0.026):
        super().__init__(name, (p, n))
        self.i_sat = i_sat
        self.vt = vt

    def stamp(self, stamper, ctx):
        p, n = self.node_index
        v = min(ctx.v(p) - ctx.v(n), 1.5)   # clip to avoid overflow
        i = self.i_sat * (math.exp(v / self.vt) - 1.0)
        g = self.i_sat / self.vt * math.exp(v / self.vt)
        stamper.conductance(p, n, g)
        stamper.current(p, n, i - g * v)


class TestLinearSolve:
    def test_single_iteration_exact(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r1", "a", "b", 1000))
        c.add(Resistor("r2", "b", "0", 1000))
        c.compile()
        x = newton_solve(c, Context(), np.zeros(c.size))
        assert x[c.index_of("b")] == pytest.approx(0.5, rel=1e-6)

    def test_wrong_guess_size_rejected(self):
        c = Circuit()
        c.add(Resistor("r", "a", "0", 100))
        c.compile()
        with pytest.raises(ConvergenceError):
            newton_solve(c, Context(), np.zeros(7))


class TestNonlinearSolve:
    def test_diode_resistor_converges(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "d", 1000))
        c.add(ExponentialDevice("d1", "d", "0"))
        c.compile()
        x = newton_solve(c, Context(), np.zeros(c.size))
        v_d = x[c.index_of("d")]
        # Check KCL: resistor current equals diode current.
        i_r = (1.0 - v_d) / 1000
        i_d = 1e-12 * (math.exp(v_d / 0.026) - 1.0)
        assert i_r == pytest.approx(i_d, rel=1e-4)
        assert 0.4 < v_d < 0.7

    def test_undeclared_element_is_restamped_every_iteration(self):
        """``is_linear`` is opt-in: without it the diode is not frozen at
        the solve's first iterate."""

        class DeclaredDevice(ExponentialDevice):
            is_linear = False

        def solve(device_type):
            c = Circuit()
            c.add(VoltageSource("v", "in", "0", dc=1.0))
            c.add(Resistor("r", "in", "d", 1000))
            c.add(device_type("d1", "d", "0"))
            c.compile()
            return newton_solve(c, Context(), np.zeros(c.size))[
                c.index_of("d")]

        assert ExponentialDevice.is_linear is False
        assert solve(ExponentialDevice) == solve(DeclaredDevice)
        assert 0.4 < solve(ExponentialDevice) < 0.7

    def test_damping_limits_overshoot(self):
        """From a terrible initial guess the damped solve still converges."""
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "d", 1000))
        c.add(ExponentialDevice("d1", "d", "0"))
        c.compile()
        bad_guess = np.full(c.size, 5.0)
        x = newton_solve(c, Context(), bad_guess)
        assert 0.4 < x[c.index_of("d")] < 0.7

    def test_iteration_limit_raises(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "d", 1000))
        c.add(ExponentialDevice("d1", "d", "0"))
        c.compile()
        opts = NewtonOptions(max_iterations=1)
        with pytest.raises(ConvergenceError) as err:
            newton_solve(c, Context(), np.zeros(c.size), opts)
        assert err.value.iterations == 1

    def test_gmin_regularises_floating_node(self):
        """A node with only a capacitor (open in DC) still solves."""
        from repro.circuit import Capacitor

        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", 1000))
        c.add(Capacitor("cfloat", "c", "0", 1e-15))
        c.add(Resistor("r2", "b", "0", 1000))
        c.compile()
        x = newton_solve(c, Context(), np.zeros(c.size))
        assert x[c.index_of("c")] == pytest.approx(0.0, abs=1e-9)

    def test_source_scale_respected(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=2.0))
        c.add(Resistor("r", "a", "0", 100))
        c.compile()
        x = newton_solve(c, Context(source_scale=0.5), np.zeros(c.size))
        assert x[c.index_of("a")] == pytest.approx(1.0, rel=1e-6)
