"""Dynamic stamp-contract sanitizer over every shipped device.

Finite-differences each element's ``F(x) = A(x) @ x - b(x)`` against
its analytic stamps and asserts the observed sparsity stays inside
``stamp_pattern()`` (see ``repro.verify.stampcheck``).  Every concrete
element class in ``repro`` must have a case here.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.analysis.mna import Context
from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Element
from repro.circuit.switches import VoltageControlledSwitch
from repro.devices.finfet import FinFET
from repro.devices.mtj import MTJ, MTJState
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from repro.verify import (
    assert_stamps_clean,
    check_circuit_stamps,
    check_element_stamp,
)


def sanitize(circuit, x=None, names=None, **kwargs):
    results = check_circuit_stamps(circuit, x=x, names=names, **kwargs)
    assert results, "no elements checked"
    assert_stamps_clean(results)
    return results


# -- passives and sources ---------------------------------------------------


def test_resistor_and_sources():
    c = Circuit("rc bench")
    c.add(VoltageSource("vin", "in", "0", dc=0.9))
    c.add(Resistor("r1", "in", "out", 1e4))
    c.add(CurrentSource("ipull", "out", "0", dc=1e-6))
    c.compile()
    x = np.array([0.9, 0.45, 1e-5])
    sanitize(c, x=x)


def test_capacitor_dc_is_open():
    c = Circuit("cap dc")
    c.add(VoltageSource("vin", "in", "0", dc=0.9))
    c.add(Capacitor("cl", "in", "0", 1e-15))
    results = sanitize(c, x=np.array([0.9, 0.0]), names=["cl"])
    # DC: open circuit, empty declared pattern, nothing stamped.
    assert results[0].ok


@pytest.mark.parametrize("method", ["be", "trap"])
def test_capacitor_transient_companion(method):
    c = Circuit("cap tran")
    c.add(VoltageSource("vin", "in", "0", dc=0.9))
    c.add(Capacitor("cl", "in", "0", 1e-15))
    c.compile()
    x = np.array([0.9, 0.0])
    c["cl"].init_state(Context(mode="dc", x=x))
    results = check_circuit_stamps(c, x=x, mode="tran", dt=1e-9,
                                   method=method, names=["cl"],
                                   # geq = C/dt ~ 1e-6 S: loosen the
                                   # absolute floor accordingly
                                   atol=1e-10)
    assert_stamps_clean(results)


def test_switch_on_off_and_mid_transition():
    c = Circuit("switch bench")
    c.add(VoltageSource("vc", "ctl", "0", dc=0.5))
    c.add(VoltageSource("vin", "in", "0", dc=0.9))
    c.add(VoltageControlledSwitch("sw", "in", "out", "ctl", "0",
                                  r_on=100.0, r_off=1e9))
    c.add(Resistor("rload", "out", "0", 1e5))
    c.compile()
    # ctl, in, out node order follows first-use; look indices up.
    i_ctl, i_in, i_out = (c.index_of(n) for n in ("ctl", "in", "out"))
    # Off, mid-transition, on — clear of the smoothstep's C1 kinks at
    # exactly v_off/v_on, where central FD picks up the curvature jump.
    for vctl in (-0.2, 0.5, 1.2):
        x = np.zeros(c.size)
        x[i_ctl] = vctl
        x[i_in] = 0.9
        x[i_out] = 0.3
        results = check_circuit_stamps(c, x=x, names=["sw"])
        assert_stamps_clean(results)


# -- devices ----------------------------------------------------------------


@pytest.mark.parametrize("params", [NFET_20NM_HP, PFET_20NM_HP],
                         ids=["nfet", "pfet"])
def test_finfet_jacobian_and_sparsity(params):
    c = Circuit("fet bench")
    c.add(VoltageSource("vd", "d", "0", dc=0.9))
    c.add(VoltageSource("vg", "g", "0", dc=0.9))
    c.add(VoltageSource("vs", "s", "0", dc=0.0))
    c.add(FinFET("m1", "d", "g", "s", params))
    c.compile()
    i_d, i_g, i_s = (c.index_of(n) for n in ("d", "g", "s"))
    # Saturation, triode, subthreshold and off bias points.
    for vd, vg, vs in ((0.9, 0.9, 0.0), (0.1, 0.9, 0.0),
                       (0.9, 0.2, 0.0), (0.9, 0.0, 0.0),
                       (0.0, 0.0, 0.9)):
        x = np.zeros(c.size)
        x[i_d], x[i_g], x[i_s] = vd, vg, vs
        results = check_circuit_stamps(c, x=x, names=["m1"], rtol=5e-4)
        assert_stamps_clean(results)


@pytest.mark.parametrize("state", [MTJState.PARALLEL,
                                   MTJState.ANTIPARALLEL],
                         ids=["P", "AP"])
def test_mtj_jacobian_and_sparsity(state):
    c = Circuit("mtj bench")
    c.add(VoltageSource("vb", "free", "0", dc=0.3))
    c.add(MTJ("mtj", "free", "pinned", state=state))
    c.add(Resistor("rret", "pinned", "0", 1e3))
    c.compile()
    i_free, i_pinned = c.index_of("free"), c.index_of("pinned")
    for bias in (0.0, 0.15, 0.4):   # TMR rolloff is bias-dependent in AP
        x = np.zeros(c.size)
        x[i_free] = bias
        x[i_pinned] = 0.02
        results = check_circuit_stamps(c, x=x, names=["mtj"])
        assert_stamps_clean(results)


def test_full_cell_testbench_is_clean():
    """Every element of the shipped NV-SRAM bench honours the contract."""
    from repro.characterize.testbench import build_cell_testbench

    circuit = build_cell_testbench("nv").circuit
    circuit.compile()
    x = np.full(circuit.size, 0.45)
    assert_stamps_clean(check_circuit_stamps(circuit, x=x, rtol=5e-4))


# Every concrete element class in ``repro``, each sanitized above.
SANITIZED = {Resistor, Capacitor, VoltageSource, CurrentSource,
             VoltageControlledSwitch, FinFET, MTJ}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_shipped_element_is_sanitized():
    """A new element class fails here until it gets a sanitizer case."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    shipped = {cls for cls in _subclasses(Element)
               if cls.__module__.startswith("repro.")
               and cls.stamp is not Element.stamp}

    def names(classes):
        return sorted(f"{cls.__module__}.{cls.__qualname__}"
                      for cls in classes)

    assert names(shipped) == names(SANITIZED)


# -- the sanitizer itself must catch violations -----------------------------


class _LeakyElement(Element):
    """Deliberately broken: stamps an entry it never declares."""

    def __init__(self, name, p, n, leak_to):
        super().__init__(name, (p, n, leak_to))
        self.g = 1e-4

    def stamp(self, stamper, ctx):
        p, n, leak = self.node_index
        stamper.conductance(p, n, self.g)
        stamper.matrix(p, leak, self.g)   # undeclared coupling

    def stamp_pattern(self, mode="dc"):
        from repro.circuit.netlist import conductance_pattern
        p, n, _leak = self.node_index
        return conductance_pattern(p, n)


class _WrongJacobianElement(Element):
    """Deliberately broken: stamped G is not dI/dV."""

    def __init__(self, name, p, n):
        super().__init__(name, (p, n))

    def stamp(self, stamper, ctx):
        p, n = self.node_index
        v = ctx.v(p) - ctx.v(n)
        i = 1e-3 * v * v * v
        g_wrong = 1e-3 * v * v          # correct would be 3e-3 * v^2
        stamper.conductance(p, n, g_wrong)
        stamper.current(p, n, i - g_wrong * v)

    def stamp_pattern(self, mode="dc"):
        from repro.circuit.netlist import conductance_pattern
        p, n = self.node_index
        return conductance_pattern(p, n)


def test_sanitizer_catches_undeclared_entry():
    c = Circuit("leaky")
    c.add(VoltageSource("v1", "a", "0", dc=1.0))
    c.add(_LeakyElement("bad", "a", "0", "c"))
    c.add(Resistor("r1", "c", "0", 1e3))
    c.compile()
    result = check_element_stamp(c["bad"], c.size,
                                 np.full(c.size, 0.5))
    assert not result.ok
    assert result.pattern_violations
    assert "outside stamp_pattern" in result.describe()
    with pytest.raises(AssertionError, match="sanitizer failures"):
        assert_stamps_clean([result])


def test_sanitizer_catches_wrong_jacobian():
    c = Circuit("wrong-g")
    c.add(VoltageSource("v1", "a", "0", dc=1.0))
    c.add(_WrongJacobianElement("bad", "a", "0"))
    c.compile()
    x = np.full(c.size, 0.5)
    result = check_element_stamp(c["bad"], c.size, x)
    assert not result.ok
    assert result.jacobian_mismatches
