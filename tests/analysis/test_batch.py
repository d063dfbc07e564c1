"""Batched DC solves: array kernels, lockstep Newton and the fallback.

The array kernels must hand the batch the values each element's scalar
``stamp()`` hands to ``Stamper.add``; the lockstep solve must give every
sample what the scalar analyses give it; and a sample the batch cannot
finish must take the scalar path without touching the other samples.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.analysis import dc_sweep, operating_point
from repro.analysis.batch import BatchSolution, CircuitBatch
from repro.analysis.dc import OperatingPointOptions
from repro.analysis.mna import Context
from repro.analysis.solver import NewtonOptions
from repro.analysis.sweep import BatchSweepResult
from repro.characterize.testbench import build_cell_testbench
from repro.characterize.variability import VariationModel, sample_rng
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.circuit.netlist import Element, conductance_pattern
from repro.circuit.switches import VoltageControlledSwitch
from repro.devices.finfet import FinFET
from repro.devices.mtj import MTJ, MTJ_TABLE1, MTJState
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from repro.errors import AnalysisError, ConvergenceError, StampError
from repro.pg.modes import Mode

VARIATION = VariationModel()


class _Recorder:
    """Keeps the values a scalar ``stamp()`` hands to ``Stamper.add``."""

    def add(self, element, ctx, values):
        self.values = np.array(values, dtype=float)


def _scalar_values(element, x):
    recorder = _Recorder()
    element.stamp(recorder, Context(x=np.asarray(x, dtype=float)))
    return recorder.values


def _assert_parity(element, xs, cards=None, states=None):
    """Every sample's kernel row matches its own scalar stamp."""
    xs = np.asarray(xs, dtype=float)
    card = element.batch_card(cards, states)
    grounded = np.concatenate((xs, np.zeros((len(xs), 1))), axis=1)
    rows = element.batch_values(grounded, card)
    for k, x in enumerate(xs):
        if cards is not None:
            element.params = cards[k]
        if states is not None:
            element.state = states[k]
        want = _scalar_values(element, x)
        np.testing.assert_allclose(rows[k], want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


def _compiled(*elements):
    circuit = Circuit("kernel probe")
    for element in elements:
        circuit.add(element)
    circuit.compile()
    return circuit


# -- array kernels -----------------------------------------------------------

#: (vd, vg, vs) biases: Vds ~ 0, deep subthreshold, the u/2 > 40 branch
#: of the EKV interpolation, reversed drain/source and plain saturation.
FET_BIASES = [
    (0.45, 0.9, 0.45),
    (0.45 + 1e-9, 0.7, 0.45),
    (0.9, -0.6, 0.0),
    (0.5, 4.0, 0.0),
    (0.0, 0.9, 0.9),
    (0.9, 0.9, 0.0),
    (0.3, 0.5, 0.6),
]


@pytest.mark.parametrize("params", [NFET_20NM_HP, PFET_20NM_HP],
                         ids=["n", "p"])
@pytest.mark.parametrize("nfin", [1, 3])
def test_finfet_kernel_matches_scalar_stamp(params, nfin):
    fet = FinFET("m1", "d", "g", "s", params, nfin)
    _compiled(VoltageSource("vd", "d", "0"), VoltageSource("vg", "g", "0"),
              fet)
    biases = [(vd, vg, vs) for vd, vg, vs in FET_BIASES]
    if params.polarity < 0:
        biases = [(-vd, -vg, -vs) for vd, vg, vs in biases]
    # Unknowns: d, g, s, then the two source branches.
    xs = [[vd, vg, vs, 0.0, 0.0] for vd, vg, vs in biases]
    _assert_parity(fet, xs)
    rng = sample_rng(5, 0)
    cards = [VARIATION.sample_fet(params, rng) for _ in xs]
    _assert_parity(fet, xs, cards=cards)


def test_finfet_kernel_takes_the_overflow_branch():
    fet = FinFET("m1", "d", "g", "s", NFET_20NM_HP)
    _compiled(VoltageSource("vd", "d", "0"), fet)
    p = NFET_20NM_HP
    vp = (4.0 - p.vth0) / p.slope_factor
    assert 0.5 * vp / p.vt_thermal > 40.0   # the bias does reach it
    _assert_parity(fet, [[0.5, 4.0, 0.0, 0.0]])


@pytest.mark.parametrize("state", list(MTJState))
def test_mtj_kernel_matches_scalar_stamp(state):
    mtj = MTJ("j1", "f", "p", MTJ_TABLE1, state)
    _compiled(VoltageSource("vf", "f", "0"), mtj)
    xs = [[v, 0.0, 0.0] for v in (0.4, -0.4, 0.05, -1.2, 0.0)]
    _assert_parity(mtj, xs)
    rng = sample_rng(5, 1)
    cards = [VARIATION.sample_mtj(MTJ_TABLE1, rng) for _ in xs]
    _assert_parity(mtj, xs, cards=cards)


def test_mtj_kernel_takes_per_sample_states():
    mtj = MTJ("j1", "f", "p")
    _compiled(VoltageSource("vf", "f", "0"), mtj)
    states = [MTJState.PARALLEL, MTJState.ANTIPARALLEL] * 2
    xs = [[v, 0.0, 0.0] for v in (0.4, 0.4, -0.3, -0.3)]
    _assert_parity(mtj, xs, states=states)


@pytest.mark.parametrize("v_on, v_off", [(0.9, 0.0), (0.0, 0.9)],
                         ids=["normal", "inverted"])
def test_switch_kernel_matches_scalar_stamp(v_on, v_off):
    sw = VoltageControlledSwitch("s1", "a", "b", "c", "0", r_on=1e3,
                                 v_on=v_on, v_off=v_off)
    _compiled(VoltageSource("va", "a", "0"), VoltageSource("vc", "c", "0"),
              sw)
    # Unknowns: a, b, c, then the two source branches.  Control below
    # v_off, inside the window and above v_on (in the switch's sense).
    controls = (-0.2, 0.1, 0.45, 0.8, 1.1)
    _assert_parity(sw, [[0.6, 0.2, vc, 0.0, 0.0] for vc in controls])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_shipped_nonlinear_element_has_a_batch_kernel():
    """A new nonlinear element class fails here until it gets a kernel."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    shipped = [cls for cls in _subclasses(Element)
               if cls.__module__.startswith("repro.")
               and cls.stamp is not Element.stamp]
    nonlinear = {cls.__qualname__ for cls in shipped if not cls.is_linear}
    kernels = {cls.__qualname__ for cls in shipped
               if cls.batch_kernel is not None}
    assert nonlinear == kernels == {"FinFET", "MTJ",
                                    "VoltageControlledSwitch"}


class _NoKernel(Element):
    def __init__(self, name, p, n):
        super().__init__(name, (p, n))

    def stamp(self, stamper, ctx):
        p, n = self.node_index
        stamper.conductance(p, n, 1e-3)


def test_batch_names_an_element_without_kernel():
    circuit = Circuit("no kernel")
    circuit.add(VoltageSource("v1", "a", "0", dc=0.5))
    circuit.add(FinFET("m1", "a", "a", "0", NFET_20NM_HP))
    circuit.add(_NoKernel("odd1", "a", "0"))
    with pytest.raises(AnalysisError, match="odd1: _NoKernel has no array"):
        CircuitBatch(circuit, {"m1": [NFET_20NM_HP] * 2})


def test_batch_rejects_cards_for_unknown_or_linear_elements():
    circuit = _half_cell()
    with pytest.raises(AnalysisError, match="vdd is not a nonlinear"):
        CircuitBatch(circuit, {"vdd": [1, 2]})
    with pytest.raises(AnalysisError, match="same number of samples"):
        CircuitBatch(circuit, {"pu": [PFET_20NM_HP], "pd": []})


# -- lockstep solves against the scalar analyses -----------------------------

def _half_cell():
    circuit = Circuit("half cell")
    circuit.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
    circuit.add(VoltageSource("vin", "in", "0", dc=0.0))
    circuit.add(FinFET("pu", "out", "in", "vdd", PFET_20NM_HP))
    circuit.add(FinFET("pd", "out", "in", "0", NFET_20NM_HP))
    circuit.add(VoltageSource("vbl", "bl", "0", dc=0.9))
    circuit.add(VoltageSource("vwl", "wl", "0", dc=0.9))
    circuit.add(FinFET("pg", "bl", "wl", "out", NFET_20NM_HP))
    return circuit


def _half_cell_cards(count, seed=3):
    cards = {"pu": [], "pd": [], "pg": []}
    for i in range(count):
        rng = sample_rng(seed, i)
        cards["pu"].append(VARIATION.sample_fet(PFET_20NM_HP, rng))
        cards["pd"].append(VARIATION.sample_fet(NFET_20NM_HP, rng))
        cards["pg"].append(VARIATION.sample_fet(NFET_20NM_HP, rng))
    return cards


def _subset(cards, keep):
    return {name: [c for k, c in enumerate(column) if k in keep]
            for name, column in cards.items()}


VIN = np.linspace(0.0, 0.9, 13)


@pytest.fixture(scope="module")
def sweep_pair():
    cards = _half_cell_cards(6)
    batch = CircuitBatch(_half_cell(), cards)
    return cards, batch, dc_sweep(batch, "vin", VIN)


def test_batch_sweep_matches_scalar_sweeps(sweep_pair):
    cards, batch, result = sweep_pair
    assert isinstance(result, BatchSweepResult)
    assert result.voltage("out").shape == (6, len(VIN))
    for k in range(6):
        scalar = dc_sweep(batch.sample_circuit(k), "vin", VIN)
        mine = result.sample(k)
        np.testing.assert_allclose(mine.voltage("out"),
                                   scalar.voltage("out"), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.voltage("out")[k],
                                   scalar.voltage("out"), rtol=0, atol=1e-12)
        for a, b in zip(mine.solutions, scalar.solutions):
            assert a.recovery_rung is None
            assert a.recovery_trace == b.recovery_trace
            assert a.cert.refined == b.cert.refined
            assert a.cert.equilibrated == b.cert.equilibrated
            assert a.residual_norm < 1e-15 and b.residual_norm < 1e-15
            assert a.cond_estimate == pytest.approx(b.cond_estimate,
                                                    rel=1e-9)
    # The sweep restores the template's source.
    assert batch.template["vin"].dc == 0.0


def test_result_does_not_depend_on_the_batch(sweep_pair):
    cards, _, whole = sweep_pair
    for k in (0, 4):
        alone = dc_sweep(CircuitBatch(_half_cell(), _subset(cards, {k})),
                         "vin", VIN)
        assert np.array_equal(alone.voltage("out")[0],
                              whole.voltage("out")[k])


@pytest.fixture(scope="module")
def store_batch():
    tb = build_cell_testbench("nv")
    devices = [e for e in tb.circuit.elements()
               if isinstance(e, (FinFET, MTJ))]
    cards = {e.name: [] for e in devices}
    for i in range(4):
        rng = sample_rng(7, i)
        for e in devices:
            draw = (VARIATION.sample_fet if isinstance(e, FinFET)
                    else VARIATION.sample_mtj)
            cards[e.name].append(draw(e.params, rng))
    tb.apply_mode(Mode.STORE_L)
    tb.nv_cell.set_mtj_states(tb.circuit, MTJState.ANTIPARALLEL,
                              MTJState.ANTIPARALLEL)
    return tb, CircuitBatch(tb.circuit, cards)


def test_clamped_operating_points_match_scalar(store_batch):
    tb, batch = store_batch
    ic = tb.initial_conditions(True)
    result = operating_point(batch, ic=ic)
    assert isinstance(result, BatchSolution)
    assert not result.failed.any() and not result.errors
    name = tb.nv_cell.mtj_qb(tb.circuit).name
    currents = batch.current(name, result.x)
    for k in range(batch.size):
        circuit = batch.sample_circuit(k)
        scalar = operating_point(circuit, ic=ic)
        mine = result.solution(k)
        np.testing.assert_allclose(mine.x, scalar.x, rtol=1e-9, atol=1e-15)
        assert mine.recovery_trace == scalar.recovery_trace
        assert mine.residual_norm < 1e-9 and scalar.residual_norm < 1e-9
        assert mine.cond_estimate == pytest.approx(scalar.cond_estimate,
                                                   rel=1e-6)
        assert currents[k] == pytest.approx(
            circuit[name].current(scalar), rel=1e-9)


def test_unreleased_clamps_match_scalar(store_batch):
    tb, batch = store_batch
    ic = tb.initial_conditions(True)
    result = operating_point(batch, ic=ic, release_clamps=False)
    scalar = operating_point(batch.sample_circuit(2), ic=ic,
                             release_clamps=False)
    np.testing.assert_allclose(result.x[2], scalar.x, rtol=1e-9, atol=1e-15)
    assert result.solution(2).recovery_trace == scalar.recovery_trace


# -- samples that leave the batch --------------------------------------------

def test_far_start_takes_the_ladder(sweep_pair):
    """A sample the plain rung cannot finish takes the scalar ladder,
    which records its rung; the other samples stay in the batch."""
    cards, batch, _ = sweep_pair
    x0 = np.zeros((batch.size, batch.template.size))
    x0[3] = 100.0   # hundreds of damped steps: the plain rung runs out
    result = operating_point(batch, x0=x0)
    assert list(result.fallbacks) == [3] and not result.errors
    scalar = operating_point(batch.sample_circuit(3), x0=x0[3])
    assert result.solution(3).recovery_rung == scalar.recovery_rung
    assert scalar.recovery_rung is not None
    assert np.array_equal(result.solution(3).x, scalar.x)
    alone = operating_point(CircuitBatch(_half_cell(), _subset(cards, {0})))
    assert np.array_equal(result.x[0], alone.x[0])


def test_broken_card_fails_its_sample_only(sweep_pair):
    """A NaN card stamps non-finite values: that sample leaves the batch,
    its scalar path raises StampError, and the rest are unchanged."""
    cards, _, whole = sweep_pair
    broken = {name: list(column) for name, column in cards.items()}
    broken["pd"][2] = broken["pd"][2].with_(vth0=float("nan"))
    result = dc_sweep(CircuitBatch(_half_cell(), broken), "vin", VIN)
    assert list(result.errors) == [2]
    assert isinstance(result.errors[2], StampError)
    with pytest.raises(StampError):
        result.sample(2)
    vout = result.voltage("out")
    assert np.isnan(vout[2]).all()
    keep = [0, 1, 3, 4, 5]
    assert np.array_equal(vout[keep], whole.voltage("out")[keep])


class _Conductance(Element):
    """A conductance to ground whose card is its value, with a kernel."""

    def __init__(self, name, p, params):
        super().__init__(name, (p, "0"))
        self.params = params

    def stamp(self, stamper, ctx):
        g = self.params
        stamper.add(self, ctx, (g, -g, -g, g, 0.0, 0.0))

    def stamp_pattern(self, mode="dc"):
        return conductance_pattern(*self.node_index)

    def batch_card(self, samples=None, states=None):
        return np.array([[self.params] if samples is None else samples])

    @staticmethod
    def batch_kernel(v, card):
        g = np.broadcast_to(card[0], v[..., 0].shape)
        zero = np.zeros_like(g)
        return np.stack((g, -g, -g, g, zero, zero), axis=-1)


def _divider():
    circuit = Circuit("divider")
    circuit.add(VoltageSource("v1", "a", "0", dc=1.0))
    circuit.add(Resistor("r1", "a", "b", 1e3))
    circuit.add(_Conductance("gx", "x", 1e-3))
    return circuit


def test_singular_sample_takes_the_ladder_alone():
    """numpy refuses the whole stack when one matrix is singular: the
    iteration solves sample by sample, and only the singular sample (gx
    cancelling gmin on its island node) leaves the batch for the scalar
    ladder, which records the rung that finished it."""
    samples = [1e-3, -1e-12, 2e-3]
    batch = CircuitBatch(_divider(), {"gx": samples})
    result = operating_point(batch)
    assert list(np.flatnonzero(result.failed)) == [1]
    assert list(result.fallbacks) == [1] and not result.errors
    scalar = operating_point(batch.sample_circuit(1))
    assert scalar.recovery_rung is not None
    assert result.solution(1).recovery_rung == scalar.recovery_rung
    assert [a["rung"] for a in scalar.recovery_trace][:2] == [
        "plain", "equilibrate"]
    good = CircuitBatch(_divider(), {"gx": [samples[0], samples[2]]})
    assert np.array_equal(result.x[[0, 2]], operating_point(good).x)


def test_exhausted_sample_is_skipped_in_a_skip_sweep(sweep_pair):
    cards, _, _ = sweep_pair
    broken = {name: list(column)[:3] for name, column in cards.items()}
    hopeless = OperatingPointOptions(newton=NewtonOptions(max_iterations=1))
    result = dc_sweep(CircuitBatch(_half_cell(), broken), "vin", VIN[:2],
                      options=hopeless, on_error="skip")
    assert not result.errors
    assert sorted(result.skips) == [0, 1, 2]
    record = result.skips[0][0]
    assert record.error_type == "ConvergenceError" and record.ladder_trace
    sweep = result.sample(0)
    assert sweep.num_skipped == 2 and sweep.solutions == [None, None]
