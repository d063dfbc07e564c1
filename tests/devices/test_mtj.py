"""Tests for the STT-MTJ macromodel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceError
from repro.analysis.mna import Context
from repro.devices.mtj import (
    MTJ,
    MTJParams,
    MTJState,
    MTJ_FIG9B,
    MTJ_TABLE1,
)


class TestTable1Values:
    """The derived quantities the paper's Table I quotes explicitly."""

    def test_r_parallel(self):
        assert MTJ_TABLE1.r_parallel == pytest.approx(6366, rel=1e-3)

    def test_r_antiparallel(self):
        assert MTJ_TABLE1.r_antiparallel_zero_bias == pytest.approx(
            12732, rel=1e-3
        )

    def test_critical_current(self):
        assert MTJ_TABLE1.critical_current == pytest.approx(15.7e-6,
                                                            rel=1e-2)

    def test_fig9b_card(self):
        assert MTJ_FIG9B.jc == pytest.approx(1e10)
        assert MTJ_FIG9B.critical_current == pytest.approx(
            MTJ_TABLE1.critical_current / 5.0, rel=1e-6
        )

    def test_area(self):
        assert MTJ_TABLE1.area == pytest.approx(math.pi * 1e-16, rel=1e-9)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("tmr0", 0.0),
        ("ra_product", -1.0),
        ("v_half", 0.0),
        ("jc", 0.0),
        ("diameter", 0.0),
        ("tau0", 0.0),
        ("t_sw_min", 0.0),
        ("relax_time", 0.0),
    ])
    def test_bad_params_rejected(self, field, value):
        with pytest.raises(DeviceError):
            MTJ_TABLE1.with_(**{field: value})


class TestResistance:
    def test_parallel_bias_independent(self):
        m = MTJ("m", "f", "p")
        assert m.resistance(0.0, MTJState.PARALLEL) == pytest.approx(
            m.resistance(0.5, MTJState.PARALLEL)
        )

    def test_tmr_rolloff_half_at_vhalf(self):
        m = MTJ("m", "f", "p")
        r_p = m.params.r_parallel
        r_ap0 = m.resistance(0.0, MTJState.ANTIPARALLEL)
        r_ap_h = m.resistance(m.params.v_half, MTJState.ANTIPARALLEL)
        tmr0 = r_ap0 / r_p - 1.0
        tmr_h = r_ap_h / r_p - 1.0
        assert tmr_h == pytest.approx(tmr0 / 2.0, rel=1e-9)

    @given(v=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_ap_resistance_bounded(self, v):
        m = MTJ("m", "f", "p")
        r = m.resistance(v, MTJState.ANTIPARALLEL)
        assert m.params.r_parallel < r <= m.params.r_antiparallel_zero_bias

    def test_ap_resistance_even_in_bias(self):
        m = MTJ("m", "f", "p")
        assert m.resistance(0.3, MTJState.ANTIPARALLEL) == pytest.approx(
            m.resistance(-0.3, MTJState.ANTIPARALLEL)
        )

    def test_derivative_matches_fd(self):
        m = MTJ("m", "f", "p", state=MTJState.ANTIPARALLEL)
        for v in (-0.6, -0.1, 0.0, 0.2, 0.7):
            i0, g = m._current_and_derivative(v)
            h = 1e-7
            fd = (m._current_and_derivative(v + h)[0]
                  - m._current_and_derivative(v - h)[0]) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-5)

    def test_current_at_explicit_state(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        i_p = m.current_at(0.1, MTJState.PARALLEL)
        i_ap = m.current_at(0.1, MTJState.ANTIPARALLEL)
        assert i_p > i_ap > 0


class TestSwitchingTimeLaw:
    def test_subcritical_never_switches(self):
        assert MTJ_TABLE1.switching_time(
            0.99 * MTJ_TABLE1.critical_current) == math.inf

    def test_time_decreases_with_overdrive(self):
        ic = MTJ_TABLE1.critical_current
        t_12 = MTJ_TABLE1.switching_time(1.2 * ic)
        t_15 = MTJ_TABLE1.switching_time(1.5 * ic)
        t_30 = MTJ_TABLE1.switching_time(3.0 * ic)
        assert t_12 > t_15 > t_30

    def test_paper_design_point_fits_window(self):
        """1.5 x Ic must complete within the 10 ns store step."""
        ic = MTJ_TABLE1.critical_current
        assert MTJ_TABLE1.switching_time(1.5 * ic) < 10e-9

    def test_precessional_floor(self):
        ic = MTJ_TABLE1.critical_current
        assert MTJ_TABLE1.switching_time(100 * ic) == MTJ_TABLE1.t_sw_min


def _committed(mtj: MTJ, v_free: float, dt: float):
    """Drive the free-pinned voltage and commit one accepted step."""
    mtj.assign_nodes((0, 1))
    ctx = Context(mode="tran", dt=dt, x=np.array([v_free, 0.0]))
    return mtj.commit(ctx)


class TestCimsDynamics:
    def test_positive_current_switches_ap_to_p(self):
        m = MTJ("m", "f", "p", state=MTJState.ANTIPARALLEL)
        # 0.3 V across AP junction: I ~ 0.3/10.6k ~ 28 uA > Ic.
        events = [_committed(m, 0.3, 2e-9) for _ in range(10)]
        assert m.state is MTJState.PARALLEL
        assert any(e == "AP->P" for e in events if e)
        assert m.switch_count == 1

    def test_negative_current_switches_p_to_ap(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        events = [_committed(m, -0.15, 2e-9) for _ in range(10)]
        assert m.state is MTJState.ANTIPARALLEL
        assert any(e == "P->AP" for e in events if e)

    def test_stabilising_direction_never_switches(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        for _ in range(50):
            assert _committed(m, 0.5, 2e-9) is None
        assert m.state is MTJState.PARALLEL

    def test_subcritical_current_never_switches(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        # 0.05 V / 6.37 k ~ 7.9 uA < Ic.
        for _ in range(100):
            assert _committed(m, -0.05, 10e-9) is None
        assert m.state is MTJState.PARALLEL

    def test_progress_relaxes_below_threshold(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        _committed(m, -0.15, 1e-9)
        accumulated = m.progress
        assert accumulated > 0
        _committed(m, 0.0, 50e-9)   # long quiet interval
        assert m.progress < accumulated * 0.01

    def test_progress_resets_after_switch(self):
        m = MTJ("m", "f", "p", state=MTJState.ANTIPARALLEL)
        for _ in range(20):
            _committed(m, 0.3, 2e-9)
            if m.state is MTJState.PARALLEL:
                break
        assert m.progress == 0.0

    def test_set_state_clears_progress(self):
        m = MTJ("m", "f", "p", state=MTJState.PARALLEL)
        _committed(m, -0.15, 1e-9)
        m.set_state(MTJState.ANTIPARALLEL)
        assert m.progress == 0.0
        assert m.state is MTJState.ANTIPARALLEL


class TestStateEnum:
    def test_opposites(self):
        assert MTJState.PARALLEL.opposite is MTJState.ANTIPARALLEL
        assert MTJState.ANTIPARALLEL.opposite is MTJState.PARALLEL
