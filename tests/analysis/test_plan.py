"""The compiled stamp plan against per-element dense assembly.

``PlanStamper`` stamps the linear elements once per solve and the
nonlinear ones through flat slots; these tests pin it to the plain
``Stamper`` fed by the same ``stamp()`` code, and check that the plan
caches topology only, so every parameter, level and state change made
between two solves is honoured.
"""

import numpy as np
import pytest

from repro.analysis import operating_point
from repro.analysis.mna import Context, PlanStamper, Stamper
from repro.analysis.solver import GMIN_FLOOR, newton_solve
from repro.characterize.testbench import build_cell_testbench
from repro.circuit import Capacitor, Circuit, Resistor, VoltageSource
from repro.circuit.netlist import Element, conductance_pattern
from repro.devices.mtj import MTJ, MTJState
from repro.devices.finfet import FinFET
from repro.pg.modes import Mode, OperatingConditions

MODES = [("dc", "be"), ("tran", "be"), ("tran", "trap")]


def _dense(circuit, ctx, x, gmin):
    """Every element's own stamp() into one dense Stamper, plus gmin."""
    stamper = Stamper(circuit.size)
    ctx.x = x
    for element in circuit.elements():
        element.stamp(stamper, ctx)
    idx = np.arange(circuit.num_nodes)
    stamper.A[idx, idx] += gmin
    return stamper.A, stamper.b


def _randomise(circuit, rng):
    """Random capacitor histories and MTJ states."""
    for element in circuit.elements():
        if isinstance(element, Capacitor):
            element.restore_state((rng.uniform(-1.0, 1.0),
                                   rng.uniform(-1e-5, 1e-5)))
        elif isinstance(element, MTJ):
            element.set_state(MTJState.PARALLEL if rng.random() < 0.5
                              else MTJState.ANTIPARALLEL)


@pytest.mark.parametrize("kind", ["nv", "6t"])
@pytest.mark.parametrize("mode,method", MODES)
def test_plan_matches_dense_assembly(kind, mode, method):
    tb = build_cell_testbench(kind)
    tb.apply_mode(Mode.READ)
    circuit = tb.circuit
    circuit.compile()
    rng = np.random.default_rng([2015, len(kind), len(mode + method)])
    worst = 0.0
    for _ in range(50):
        _randomise(circuit, rng)
        x = rng.uniform(-0.2, 1.1, circuit.size)
        x[circuit.num_nodes:] = rng.uniform(-1e-4, 1e-4,
                                            circuit.num_branches)
        ctx = Context(mode=mode, time=rng.uniform(0.0, 2e-9),
                      dt=rng.uniform(1e-13, 1e-10), method=method,
                      source_scale=rng.uniform(0.5, 1.0))
        plan = PlanStamper(circuit.plan, ctx, GMIN_FLOOR)
        plan.restamp(ctx, x)
        A, b = _dense(circuit, ctx, x, GMIN_FLOOR)
        scale = np.maximum(np.abs(A).max(axis=1), np.abs(b))
        err = np.maximum(np.abs(plan.A - A).max(axis=1),
                         np.abs(plan.b - b)) / scale
        worst = max(worst, float(err.max()))
    assert worst <= 1e-13


def test_linear_elements_stamp_once_per_solve(monkeypatch):
    circuit = build_cell_testbench("nv").circuit
    plan = circuit.plan
    assert {type(e).__name__ for e in plan.linear} == {"VoltageSource",
                                                       "Capacitor"}
    assert {type(e).__name__ for e in plan.nonlinear} == {
        "FinFET", "VoltageControlledSwitch", "MTJ"}
    counts = {True: 0, False: 0}
    original = PlanStamper.add

    def counting_add(self, element, ctx, values):
        counts[element.is_linear] += 1
        original(self, element, ctx, values)

    monkeypatch.setattr(PlanStamper, "add", counting_add)
    ctx = Context(mode="tran", dt=1e-11, method="trap")
    stamper = PlanStamper(plan, ctx, GMIN_FLOOR)
    for _ in range(3):
        stamper.restamp(ctx, np.zeros(circuit.size))
    assert counts == {True: len(plan.linear),
                      False: 3 * len(plan.nonlinear)}


class _Conductance(Element):
    """A conductance that hands ``add`` extra or too few values."""

    def __init__(self, name, p, n, g, extra=0, drop=0):
        super().__init__(name, (p, n))
        self.g, self.extra, self.drop = g, extra, drop

    def stamp(self, stamper, ctx):
        g = self.g
        values = [0.0] * self.extra + [g, -g, -g, g, 0.0, 0.0]
        stamper.add(self, ctx, values[:len(values) - self.drop])

    def stamp_pattern(self, mode="dc"):
        return conductance_pattern(*self.node_index)


@pytest.mark.parametrize("extra,drop,message", [
    # Seven values then five: the total matches, so only a per-element
    # check sees it (unchecked, V(b) solves to 1.0909 V, not 0.3529 V).
    (1, 1, "g1: stamp() handed 7 values"),
    (0, 1, "g2: stamp() handed 5 values"),
], ids=["offsetting", "one"])
def test_wrong_value_count_names_the_element(extra, drop, message):
    c = Circuit("miscounted divider")
    c.add(VoltageSource("v1", "a", "0", dc=1.0))
    c.add(Resistor("r1", "a", "b", 1e3))
    c.add(Resistor("r2", "c", "0", 1e3))
    c.add(_Conductance("g1", "b", "0", 1e-3, extra=extra))
    c.add(_Conductance("g2", "b", "c", 5e-3, drop=drop))
    with pytest.raises(ValueError) as info:
        operating_point(c)
    assert str(info.value) == (message + ", stamp_pattern() and the "
                               "element's unknowns make 6")


def test_plan_is_rebuilt_only_on_recompile():
    tb = build_cell_testbench("6t")
    circuit = tb.circuit
    plan = circuit.plan
    assert circuit.plan is plan
    circuit.add(Resistor("r_extra", "cell.q", "0", 1e9))
    assert circuit.plan is not plan


# -- changes between two solves on one compiled circuit ----------------------

def _bench(mode):
    tb = build_cell_testbench("nv", OperatingConditions())
    tb.apply_mode(mode)
    tb.set_mtj_data(True)
    tb.circuit.compile()
    return tb


def _solve(tb, x0):
    return newton_solve(tb.circuit, Context(), x0)


def _change_level(tb):
    tb.circuit["vrail"].set_level(0.8)


def _change_mtj_state(tb):
    tb.set_mtj_data(False)


def _change_fet_params(tb):
    for element in tb.circuit.elements():
        if isinstance(element, FinFET):
            element.params = element.params.with_(
                vth0=element.params.vth0 * 0.9)


def _add_element(tb):
    tb.circuit.add(Resistor("r_load", "cell.q", "0", 2e4))


@pytest.mark.parametrize("mode,change", [
    (Mode.STANDBY, _change_level),
    (Mode.STORE_H, _change_mtj_state),
    (Mode.STANDBY, _change_fet_params),
    (Mode.STANDBY, _add_element),
], ids=["set_level", "set_state", "params", "add"])
def test_changes_between_solves_are_honoured(mode, change):
    tb = _bench(mode)
    guess = np.full(tb.circuit.size, 0.4)
    guess[tb.circuit.index_of("cell.q")] = 0.9
    guess[tb.circuit.index_of("cell.qb")] = 0.0
    first = _solve(tb, guess)
    change(tb)
    second = _solve(tb, first)

    fresh = _bench(mode)
    change(fresh)
    expected = _solve(fresh, first)
    assert not np.array_equal(second, first)
    np.testing.assert_array_equal(second, expected)
