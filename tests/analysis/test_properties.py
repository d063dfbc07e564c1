"""Cross-cutting property tests on the simulation engine.

These check physical invariants on randomly generated circuits — the
class of bug (sign errors, double-stamping, lost energy) that targeted
unit tests can miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import operating_point, transient
from repro.circuit import (
    Capacitor,
    Circuit,
    Resistor,
    Step,
    VoltageSource,
)
from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP

resistors = st.lists(st.floats(min_value=50, max_value=1e6),
                     min_size=2, max_size=7)


def _random_ladder(rs, v=1.0, with_caps=False, stepped=False):
    """A resistor ladder in -> n1 -> ... -> gnd, optional caps per node.

    ``stepped=True`` drives the input with a 0 -> v step at t = 0 (for
    transient energy tests); otherwise the source is a plain DC level.
    """
    c = Circuit("ladder")
    wave = Step(0.0, v, 0.0, 1e-13) if stepped else None
    c.add(VoltageSource("v", "n0", "0", dc=v, waveform=wave))
    for i, r in enumerate(rs):
        c.add(Resistor(f"r{i}", f"n{i}", f"n{i + 1}", r))
        if with_caps:
            c.add(Capacitor(f"c{i}", f"n{i + 1}", "0", 1e-13))
    c.add(Resistor("rload", f"n{len(rs)}", "0", 1e3))
    return c


class TestDcInvariants:
    @given(rs=resistors)
    @settings(max_examples=40, deadline=None)
    def test_kcl_at_every_internal_node(self, rs):
        c = _random_ladder(rs)
        sol = operating_point(c)
        for i in range(1, len(rs)):
            i_in = c[f"r{i - 1}"].current(sol)
            i_out = c[f"r{i}"].current(sol)
            assert i_in == pytest.approx(i_out, rel=1e-6, abs=1e-12)

    @given(rs=resistors)
    @settings(max_examples=40, deadline=None)
    def test_voltages_monotone_down_the_ladder(self, rs):
        c = _random_ladder(rs)
        sol = operating_point(c)
        levels = [sol.voltage(f"n{i}") for i in range(len(rs) + 1)]
        assert all(a >= b - 1e-9 for a, b in zip(levels, levels[1:]))
        assert levels[0] == pytest.approx(1.0, rel=1e-6)

    @given(rs=resistors)
    @settings(max_examples=40, deadline=None)
    def test_source_power_equals_dissipation(self, rs):
        c = _random_ladder(rs)
        sol = operating_point(c)
        delivered = c["v"].delivered_power(sol)
        dissipated = sum(
            c[name].power(sol) for name in c.element_names()
            if name.startswith("r")
        )
        # The gmin floor (1 pS per node to ground) sinks a sliver of
        # current the resistor sum doesn't see — allow it.
        assert delivered == pytest.approx(dissipated, rel=1e-4)


class TestTransientInvariants:
    @given(rs=st.lists(st.floats(min_value=100, max_value=1e5),
                       min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_energy_conservation_rc_ladder(self, rs):
        """Source energy = resistive dissipation + stored cap energy."""
        c = _random_ladder(rs, with_caps=True, stepped=True)
        tau_max = sum(rs) * 1e-13 * len(rs)
        res = transient(c, max(40 * tau_max, 1e-9))
        e_source = res.energy(["v"])

        final = res.final_solution()
        e_caps = sum(
            0.5 * c[f"c{i}"].capacitance * final.voltage(f"n{i + 1}") ** 2
            for i in range(len(rs))
        )
        # Dissipation integral from the recorded samples.
        e_diss = 0.0
        for name in c.element_names():
            if not name.startswith("r"):
                continue
            r = c[name]
            p_node, n_node = r.node_names
            dv = res.voltage(p_node) - res.voltage(n_node)
            power = dv * dv * r.conductance
            e_diss += float(np.trapezoid(power, res.time))
        assert e_source == pytest.approx(e_caps + e_diss, rel=2e-2)

    @given(v=st.floats(min_value=0.2, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_cmos_inverter_transition_energy(self, v):
        """Charging an inverter's load through the PFET draws ~C*V^2
        from the supply (half stored, half dissipated) regardless of
        the device's nonlinearity."""
        c = Circuit("inv-energy")
        c.add(VoltageSource("vdd", "vdd", "0", dc=v))
        c.add(VoltageSource("vin", "in", "0",
                            waveform=Step(v, 0.0, 1e-10, 1e-11)))
        c.add(FinFET("pu", "out", "in", "vdd", PFET_20NM_HP))
        c.add(FinFET("pd", "out", "in", "0", NFET_20NM_HP))
        cap = 10e-15
        c.add(Capacitor("cl", "out", "0", cap))
        res = transient(c, 3e-9, ic={"out": 0.0})
        e_vdd = res.energy(["vdd"])
        assert e_vdd == pytest.approx(cap * v * v, rel=0.1)

    def test_bistable_never_drifts(self):
        """A quiet latch holds its state over a long transient."""
        c = Circuit("latch-hold")
        c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
        c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
        c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
        c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
        c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
        c.add(Capacitor("cq", "q", "0", 1e-16))
        c.add(Capacitor("cqb", "qb", "0", 1e-16))
        res = transient(c, 1e-6, ic={"q": 0.9, "qb": 0.0})
        assert np.all(res.voltage("q") > 0.85)
        assert np.all(res.voltage("qb") < 0.05)
