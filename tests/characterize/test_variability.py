"""Tests for the Monte-Carlo variability analyses."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CharacterizationError
from repro.cells import PowerDomain
from repro.characterize.variability import (
    SnmDistribution,
    StoreYieldResult,
    VariationModel,
    read_snm_distribution,
    store_yield_analysis,
)
from repro.devices.mtj import MTJ_TABLE1
from repro.devices.ptm20 import NFET_20NM_HP
from repro.pg.modes import OperatingConditions

COND = OperatingConditions()
DOMAIN = PowerDomain(64, 32)


class TestVariationModel:
    def test_fet_sampling_moves_vth(self):
        rng = np.random.default_rng(1)
        model = VariationModel(sigma_vth=0.025)
        samples = [model.sample_fet(NFET_20NM_HP, rng).vth0
                   for _ in range(300)]
        assert np.std(samples) == pytest.approx(0.025, rel=0.2)
        assert np.mean(samples) == pytest.approx(NFET_20NM_HP.vth0,
                                                 abs=0.005)

    def test_zero_sigma_gives_nominal_vth(self):
        rng = np.random.default_rng(1)
        model = VariationModel(sigma_vth=0.0, sigma_ispec_rel=0.0)
        sample = model.sample_fet(NFET_20NM_HP, rng)
        assert sample.vth0 == NFET_20NM_HP.vth0
        assert sample.i_spec == NFET_20NM_HP.i_spec

    def test_mtj_sampling(self):
        rng = np.random.default_rng(2)
        model = VariationModel(sigma_ic_rel=0.05)
        ics = [model.sample_mtj(MTJ_TABLE1, rng).critical_current
               for _ in range(300)]
        spread = np.std(np.log(ics))
        assert spread == pytest.approx(0.05, rel=0.25)


class TestStoreYield:
    @pytest.fixture(scope="class")
    def result(self) -> StoreYieldResult:
        return store_yield_analysis(COND, DOMAIN, n_samples=50, seed=7)

    def test_all_samples_switch(self, result):
        """At Table I biases every corner still clears Ic — the store
        functions across variation even where the 1.5x margin does not
        hold (which is exactly what the margin is budgeted for)."""
        assert result.switching_yield == 1.0

    def test_margins_distributed(self, result):
        assert result.margins.std() > 0.0
        assert 1.0 < result.percentile(50) < 2.0

    def test_margin_yield_leq_switching_yield(self, result):
        assert result.margin_yield <= result.switching_yield

    def test_deterministic_given_seed(self):
        a = store_yield_analysis(COND, DOMAIN, n_samples=5, seed=11)
        b = store_yield_analysis(COND, DOMAIN, n_samples=5, seed=11)
        np.testing.assert_array_equal(a.margins, b.margins)

    def test_larger_variation_widens_distribution(self):
        tight = store_yield_analysis(
            COND, DOMAIN, n_samples=40, seed=3,
            variation=VariationModel(sigma_vth=0.005, sigma_ic_rel=0.01),
        )
        wide = store_yield_analysis(
            COND, DOMAIN, n_samples=40, seed=3,
            variation=VariationModel(sigma_vth=0.05, sigma_ic_rel=0.10),
        )
        assert wide.margins.std() > 2 * tight.margins.std()

    def test_bad_sample_count(self):
        with pytest.raises(CharacterizationError):
            store_yield_analysis(COND, DOMAIN, n_samples=0)


class TestSnmDistribution:
    @pytest.fixture(scope="class")
    def result(self) -> SnmDistribution:
        return read_snm_distribution(COND, n_samples=30, seed=5)

    def test_mean_below_nominal(self, result):
        """Mismatch can only hurt the worst lobe: the mean MC read SNM
        sits below the nominal symmetric value."""
        from repro.characterize.snm import static_noise_margin

        nominal = static_noise_margin(COND, read_mode=True)
        assert result.mean < nominal

    def test_spread_reflects_sigma(self, result):
        assert 0.005 < result.std < 0.05

    def test_yield_high_at_nominal_sigma(self, result):
        assert result.stability_yield > 0.9

    def test_hold_mode_stronger_than_read(self):
        hold = read_snm_distribution(COND, n_samples=20, read_mode=False,
                                     seed=9)
        read = read_snm_distribution(COND, n_samples=20, read_mode=True,
                                     seed=9)
        assert hold.mean > read.mean

    def test_underdrive_improves_mc_read_snm(self):
        base = read_snm_distribution(COND, n_samples=20, seed=13)
        assisted = read_snm_distribution(
            COND.with_(wl_underdrive=0.1), n_samples=20, seed=13,
        )
        assert assisted.mean > base.mean

    def test_bad_sample_count(self):
        with pytest.raises(CharacterizationError):
            read_snm_distribution(COND, n_samples=0)

    def test_stamp_error_skips_sample_like_campaign(self, monkeypatch):
        """A sample whose solve raises StampError (a NaN threshold in its
        first card) is NaN plus a skip; the sample beside it keeps the
        SNM it has in a clean run."""
        clean = read_snm_distribution(COND, n_samples=2, seed=5)
        real = VariationModel.sample_fet
        draws = {"n": 0}

        def broken_first(self, params, rng):
            card = real(self, params, rng)
            draws["n"] += 1
            return card.with_(vth0=float("nan")) if draws["n"] == 1 else card

        monkeypatch.setattr(VariationModel, "sample_fet", broken_first)
        result = read_snm_distribution(COND, n_samples=2, seed=5)
        assert np.isnan(result.snm).tolist() == [True, False]
        assert result.n_failed == 1
        assert result.skips[0].index == 0
        assert result.skips[0].error_type == "StampError"
        assert result.snm[1] == clean.snm[1]


def test_larger_run_extends_a_smaller_one():
    """Per-index seeding: the first samples of a larger run are the
    smaller run's samples, bit for bit, for both analyses."""
    small = store_yield_analysis(n_samples=4, seed=11)
    large = store_yield_analysis(n_samples=9, seed=11)
    assert np.array_equal(small.margins, large.margins[:4], equal_nan=True)
    small = read_snm_distribution(n_samples=3, seed=11)
    large = read_snm_distribution(n_samples=7, seed=11)
    assert np.array_equal(small.snm, large.snm[:3], equal_nan=True)


class TestAsymmetricButterfly:
    def test_reduces_to_symmetric(self):
        from repro.characterize.snm import (
            _butterfly_snm,
            _butterfly_snm_two,
            butterfly_curve,
        )

        curve = butterfly_curve(COND, read_mode=False)
        sym, _ = _butterfly_snm(curve.vin, curve.vout)
        two, lobes = _butterfly_snm_two(curve.vin, curve.vout, curve.vout)
        assert two == pytest.approx(sym, rel=1e-9)
        assert lobes[0] == pytest.approx(lobes[1], rel=1e-6)

    def test_skewed_pair_has_unequal_lobes(self):
        from repro.characterize.snm import _butterfly_snm_two, butterfly_curve

        curve = butterfly_curve(COND, read_mode=False)
        # Inverter 2 with a shifted switching threshold.
        import numpy as np

        vin = curve.vin
        shifted = np.interp(np.clip(vin - 0.08, 0, None), vin, curve.vout)
        snm, lobes = _butterfly_snm_two(vin, curve.vout, shifted)
        assert abs(lobes[0] - lobes[1]) > 1e-3
        assert snm == pytest.approx(min(lobes))


#: The end-to-end benchmark's Monte-Carlo references (read only).
EXPECTED = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / \
    "expected.json"


@pytest.mark.parametrize("seed", [7, 2015])
def test_monte_carlo_matches_benchmark_references(seed):
    """100-sample runs reproduce the mc-dc references under their kinds:
    yields exact, failure counts exact, means within their tolerance."""
    from repro.verify.equiv import TOLERANCES

    ref = json.loads(EXPECTED.read_text())["mc-dc"]
    store = store_yield_analysis(n_samples=100, seed=seed)
    snm = read_snm_distribution(n_samples=100, seed=seed)
    got = {
        "switching_yield": store.switching_yield,
        "margin_yield": store.margin_yield,
        "store_n_failed": store.n_failed,
        "mean_margin": float(np.nanmean(store.margins)),
        "stability_yield": snm.stability_yield,
        "snm_n_failed": snm.n_failed,
        "snm_mean": snm.mean,
    }
    want = ref["seeds"][str(seed)]
    for kinds in ref["kinds"].values():
        for field, kind in kinds.items():
            if kind == "exact":
                assert got[field] == want[field], field
            else:
                assert TOLERANCES[kind].allows(got[field], want[field]), (
                    field, got[field], want[field])
