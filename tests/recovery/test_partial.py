"""Partial-result semantics: skip records, skip-tolerant sweeps and the
characterisation drivers that consume them."""

import numpy as np
import pytest

from repro.analysis import dc_sweep
from repro.analysis.dc import OperatingPointOptions
from repro.analysis.solver import NewtonOptions
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
from repro.errors import AnalysisError, CharacterizationError, ConvergenceError
from repro.recovery import SkipRecord, run_point, skip_payload
from repro.recovery.ladder import RecoveryOptions


def _latch_with_source():
    c = Circuit("latch+vin")
    c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
    c.add(VoltageSource("vin", "in", "0", dc=0.0))
    c.add(Resistor("rin", "in", "q", 1e6))
    c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
    c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
    return c


def _hopeless_options():
    """Options under which the latch cannot converge at all."""
    opts = OperatingPointOptions(
        newton=NewtonOptions(max_iterations=2),
        recovery=RecoveryOptions(damping_factors=(), gmin_steps=(),
                                 pseudo_transient=False, source_ramp=False,
                                 source_steps=()),
    )
    return opts


class TestRunPoint:
    def test_success_passthrough(self):
        value, skip = run_point(lambda: 42.0, index=3, label="x=3")
        assert value == 42.0
        assert skip is None

    def test_analysis_error_becomes_skip(self):
        def boom():
            raise ConvergenceError("no luck", iterations=7, residual=1e-3)

        value, skip = run_point(boom, index=5, label="x=5", stage="test",
                                extra_key="extra_value")
        assert value is None
        assert isinstance(skip, SkipRecord)
        assert skip.index == 5
        assert skip.error_type == "ConvergenceError"
        assert skip.residual == pytest.approx(1e-3)
        assert skip.extra["extra_key"] == "extra_value"

    def test_programming_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            run_point(lambda: 1 / 0)

    def test_skip_payload_envelope(self):
        _, skip = run_point(
            lambda: (_ for _ in ()).throw(AnalysisError("bad")),
            index=0, stage="unit")
        payload = skip_payload([skip])
        assert payload["kind"] == "skip_records"
        assert payload["stage"] == "unit"
        assert len(payload["records"]) == 1


class TestSweepSkips:
    def test_raise_policy_propagates(self):
        c = _latch_with_source()
        with pytest.raises(ConvergenceError):
            dc_sweep(c, "vin", [0.0, 0.4], options=_hopeless_options())

    def test_invalid_policy_rejected(self):
        c = _latch_with_source()
        with pytest.raises(AnalysisError):
            dc_sweep(c, "vin", [0.0], on_error="ignore")

    def test_skip_policy_annotates_every_point(self):
        """The contract: an N-point sweep always returns N entries."""
        c = _latch_with_source()
        values = np.linspace(0.0, 0.4, 7)
        sweep = dc_sweep(c, "vin", values, options=_hopeless_options(),
                         on_error="skip")
        assert len(sweep) == 7
        assert len(sweep.solutions) == 7
        assert sweep.num_skipped == 7
        v = sweep.voltage("q")
        assert v.shape == (7,)
        assert np.all(np.isnan(v))
        for i, record in enumerate(sweep.skips):
            assert record.index == i
            assert record.stage == "dc_sweep"
            assert record.extra["value"] == pytest.approx(values[i])

    def test_partial_failure_keeps_good_points(self, monkeypatch):
        """Failing only the middle point must not disturb its neighbours."""
        from repro.analysis import sweep as sweep_mod

        real_op = sweep_mod.operating_point
        calls = {"n": 0}

        def flaky(circuit, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("injected failure")
            return real_op(circuit, **kwargs)

        monkeypatch.setattr(sweep_mod, "operating_point", flaky)
        c = _latch_with_source()
        sweep = dc_sweep(c, "vin", [0.0, 0.1, 0.2], on_error="skip")
        v = sweep.voltage("vdd")
        assert np.isnan(v[1])
        assert v[0] == pytest.approx(0.9, rel=1e-3)
        assert v[2] == pytest.approx(0.9, rel=1e-3)
        assert sweep.num_skipped == 1


class TestCharacterizeDrivers:
    def test_vvdd_sweep_records_skips(self, monkeypatch):
        from repro.characterize import testbench as tb_mod
        from repro.characterize import vvdd as vvdd_mod

        real_op = tb_mod.operating_point
        calls = {"n": 0}

        def flaky(circuit, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:   # second nfsw point, normal mode
                raise ConvergenceError("injected failure")
            return real_op(circuit, **kwargs)

        monkeypatch.setattr(tb_mod, "operating_point", flaky)
        sweep = vvdd_mod.vvdd_vs_nfsw(nfsw_values=(6, 7, 8))
        assert len(sweep.skips) == 1
        assert np.isnan(sweep.vvdd_normal).sum() == 1
        # The target query still works off the converged points.
        assert sweep.smallest_nfsw_for(0.9) is not None

    def test_store_yield_counts_failed_samples(self, monkeypatch):
        from repro.analysis import dc as dc_mod
        from repro.characterize import variability as var_mod

        # The samples run as one batch.  A NaN threshold in the first
        # drawn card makes the batch reject sample 0's stamp, so sample 0
        # alone leaves the batch for the scalar path: the per-sample
        # fallback seam, where the failure is injected.
        real_fet = var_mod.VariationModel.sample_fet
        draws = {"n": 0}

        def broken_first(self, params, rng):
            card = real_fet(self, params, rng)
            draws["n"] += 1
            return card.with_(vth0=float("nan")) if draws["n"] == 1 else card

        real_op = dc_mod.operating_point
        calls = {"n": 0}

        def flaky(circuit, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:    # first sample fails outright
                raise ConvergenceError("injected failure")
            return real_op(circuit, *args, **kwargs)

        monkeypatch.setattr(var_mod.VariationModel, "sample_fet",
                            broken_first)
        monkeypatch.setattr(dc_mod, "operating_point", flaky)
        result = var_mod.store_yield_analysis(n_samples=3, seed=11)
        assert calls["n"] == 1
        assert result.skips[0].index == 0
        assert result.n_failed == 1
        assert len(result.margins) == 3
        assert np.isnan(result.margins).sum() == 1
        # Failed corners count against yield, not toward it.
        assert result.margin_yield <= 2 / 3
        assert np.isfinite(result.percentile(50))

    def test_leakage_sweep_total_failure_raises(self, monkeypatch):
        """Every point skipped must raise, not report a NaN optimum."""
        from repro.characterize import leakage as leak_mod

        class _AllNanSweep:
            skips = []

            def measure(self, fn):
                return np.full(2, np.nan)

        monkeypatch.setattr(leak_mod, "dc_sweep",
                            lambda *a, **k: _AllNanSweep())
        with pytest.raises(ConvergenceError, match="every V_CTRL point"):
            leak_mod.leakage_vs_vctrl(v_ctrl_values=[0.0, 0.1])
