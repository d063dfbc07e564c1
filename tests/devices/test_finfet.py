"""Tests for the EKV-style FinFET compact model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceError
from repro.devices.finfet import (FinFET, FinFETParams, _interp,
                                  _interp_arrays)
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP

bias = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _nfet(nfin=1):
    return FinFET("m", "d", "g", "s", NFET_20NM_HP, nfin)


def _pfet(nfin=1):
    return FinFET("m", "d", "g", "s", PFET_20NM_HP, nfin)


class TestParams:
    def test_validation(self):
        with pytest.raises(DeviceError):
            FinFETParams(polarity=0, vth0=0.2, slope_factor=1.2,
                         i_spec=1e-6, dibl=0.1)
        with pytest.raises(DeviceError):
            FinFETParams(polarity=1, vth0=-0.1, slope_factor=1.2,
                         i_spec=1e-6, dibl=0.1)
        with pytest.raises(DeviceError):
            FinFETParams(polarity=1, vth0=0.2, slope_factor=0.9,
                         i_spec=1e-6, dibl=0.1)
        with pytest.raises(DeviceError):
            FinFETParams(polarity=1, vth0=0.2, slope_factor=1.2,
                         i_spec=-1e-6, dibl=0.1)
        with pytest.raises(DeviceError):
            FinFETParams(polarity=1, vth0=0.2, slope_factor=1.2,
                         i_spec=1e-6, dibl=-0.1)

    def test_with_(self):
        card = NFET_20NM_HP.with_(vth0=0.3)
        assert card.vth0 == 0.3
        assert card.i_spec == NFET_20NM_HP.i_spec

    def test_subthreshold_swing(self):
        # SS = n * vt * ln(10): ~72 mV/dec for the n card.
        assert NFET_20NM_HP.subthreshold_swing == pytest.approx(0.072,
                                                                rel=2e-2)

    def test_nfin_validation(self):
        with pytest.raises(DeviceError):
            _build = FinFET("m", "d", "g", "s", NFET_20NM_HP, 0)
        with pytest.raises(DeviceError):
            _build = FinFET("m", "d", "g", "s", NFET_20NM_HP, 1.5)


class TestPhysics:
    def test_zero_vds_zero_current(self):
        d = _nfet()
        assert d.ids(0.5, 0.9, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_source_drain_symmetry(self):
        d = _nfet()
        for vg in (0.0, 0.45, 0.9):
            assert d.ids(0.7, vg, 0.2) == pytest.approx(
                -d.ids(0.2, vg, 0.7), rel=1e-12
            )

    @given(vg=bias, vd=bias, vs=bias)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_property(self, vg, vd, vs):
        d = _nfet()
        assert d.ids(vd, vg, vs) == pytest.approx(-d.ids(vs, vg, vd),
                                                  rel=1e-9, abs=1e-18)

    def test_monotone_in_gate(self):
        d = _nfet()
        vgs = np.linspace(0.0, 0.9, 50)
        ids = [d.ids(0.9, vg, 0.0) for vg in vgs]
        assert all(i2 > i1 for i1, i2 in zip(ids, ids[1:]))

    def test_monotone_in_drain(self):
        d = _nfet()
        vds = np.linspace(0.0, 0.9, 50)
        ids = [d.ids(vd, 0.9, 0.0) for vd in vds]
        assert all(i2 >= i1 for i1, i2 in zip(ids, ids[1:]))

    def test_nfin_scaling_exact(self):
        one = _nfet(1)
        four = _nfet(4)
        for bias_pt in [(0.9, 0.9, 0.0), (0.3, 0.5, 0.1)]:
            assert four.ids(*bias_pt) == pytest.approx(
                4 * one.ids(*bias_pt), rel=1e-12
            )

    def test_subthreshold_slope_measured(self):
        """Deep in subthreshold the I-V is exponential with the card's
        swing; near threshold the EKV interpolation softens it."""
        d = _nfet()
        i1 = d.ids(0.9, -0.20, 0.0)
        i2 = d.ids(0.9, -0.10, 0.0)
        ss_deep = 0.10 / np.log10(i2 / i1)
        assert ss_deep == pytest.approx(NFET_20NM_HP.subthreshold_swing,
                                        rel=0.05)
        # Near threshold the measured swing is larger but still bounded.
        i3 = d.ids(0.9, 0.05, 0.0)
        i4 = d.ids(0.9, 0.12, 0.0)
        ss_near = 0.07 / np.log10(i4 / i3)
        assert NFET_20NM_HP.subthreshold_swing < ss_near < 0.11

    def test_dibl_raises_leakage(self):
        d = _nfet()
        assert d.ids(0.9, 0.0, 0.0) > 3 * d.ids(0.1, 0.0, 0.0)

    def test_source_follower_cutoff_at_high_source(self):
        """With both channel terminals near VDD and the gate at VDD the
        effective Vgs is ~0: the device must be off.  (This is the
        ground-referenced-EKV artifact the smooth-min source reference
        avoids.)"""
        d = _nfet()
        leak = abs(d.ids(0.85, 0.9, 0.9))
        on = abs(d.ids(0.9, 0.9, 0.0))
        assert leak < on * 1e-2


class TestPolarity:
    def test_pfet_conducts_with_low_gate(self):
        p = _pfet()
        on = abs(p.ids(0.0, 0.0, 0.9))     # |Vgs| = |Vds| = 0.9
        off = abs(p.ids(0.0, 0.9, 0.9))    # gate at source
        assert on > 1e-5
        assert off < on * 1e-3

    def test_pfet_current_sign(self):
        p = _pfet()
        # Current flows source -> drain inside a conducting PFET, i.e.
        # i_ds (drain -> source) is negative.
        assert p.ids(0.0, 0.0, 0.9) < 0.0

    @given(vg=bias, vd=bias, vs=bias)
    @settings(max_examples=60, deadline=None)
    def test_pfet_mirror_of_nfet(self, vg, vd, vs):
        """A PFET with mirrored card equals the negated mirrored NFET."""
        n_card = NFET_20NM_HP
        p_card = n_card.with_(polarity=-1)
        n = FinFET("n", "d", "g", "s", n_card)
        p = FinFET("p", "d", "g", "s", p_card)
        assert p.ids(vd, vg, vs) == pytest.approx(
            -n.ids(-vd, -vg, -vs), rel=1e-9, abs=1e-18
        )


class TestJacobian:
    @given(vg=bias, vd=bias, vs=bias)
    @settings(max_examples=60, deadline=None)
    def test_analytic_matches_finite_difference(self, vg, vd, vs):
        d = _nfet()
        i0, gd, gg, gs = d._evaluate(vd, vg, vs)
        h = 1e-7
        fd_d = (d.ids(vd + h, vg, vs) - d.ids(vd - h, vg, vs)) / (2 * h)
        fd_g = (d.ids(vd, vg + h, vs) - d.ids(vd, vg - h, vs)) / (2 * h)
        fd_s = (d.ids(vd, vg, vs + h) - d.ids(vd, vg, vs - h)) / (2 * h)
        scale = max(abs(fd_d), abs(fd_g), abs(fd_s), 1e-12)
        assert gd == pytest.approx(fd_d, rel=5e-3, abs=scale * 1e-4)
        assert gg == pytest.approx(fd_g, rel=5e-3, abs=scale * 1e-4)
        assert gs == pytest.approx(fd_s, rel=5e-3, abs=scale * 1e-4)

    def test_gate_conductance_positive(self):
        d = _nfet()
        for vg in np.linspace(0, 0.9, 10):
            _, _, gg, _ = d._evaluate(0.9, vg, 0.0)
            assert gg > 0


class TestInterpolation:
    """The scalar EKV interpolation against the array kernel's, on both
    sides of the ``u/2 > 40`` branch (no shipped bias reaches it: it needs
    vp - vs above 2 V)."""

    @pytest.mark.parametrize("u", [-400.0, -20.0, 0.0, 20.0, 79.99, 80.0,
                                   80.01, 400.0, 2000.0])
    def test_scalar_matches_array_kernel(self, u):
        f, f_prime = _interp(u)
        (f_arr,), (f_prime_arr,) = _interp_arrays(np.array([u]))
        assert math.isfinite(f) and math.isfinite(f_prime)
        assert f == pytest.approx(f_arr, rel=1e-15, abs=0.0)
        assert f_prime == pytest.approx(f_prime_arr, rel=1e-15, abs=0.0)


class TestRepr:
    def test_repr_mentions_polarity_and_fins(self):
        assert "n-ch" in repr(_nfet())
        assert "nfin=3" in repr(_pfet(3).__class__("x", "d", "g", "s",
                                                   PFET_20NM_HP, 3))
