"""Numerical-trust layer tests: certification, conditioning defenses,
the fail-fast stamp guard, and trust threading into results.

The linear-algebra primitives are tested directly on small dense
systems; the integration tests then check that every analysis result
carries the certification fields and that a deliberately ill-conditioned
floating-rail deck (conductances spanning ~14 decades, the power-gating
corner the paper's architectures live in) triggers the defenses and
still certifies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import dc_sweep, operating_point, transient
from repro.analysis.mna import Context
from repro.analysis.solver import NewtonOptions, newton_solve
from repro.analysis.transient import TransientOptions
from repro.analysis.trust import (
    Certificate,
    TrustAccumulator,
    TrustOptions,
    certify,
    describe_offenders,
    equilibrated_solve,
    equilibration_scales,
    locate_nonfinite_stamps,
    onenorm_condest,
    refine,
    residual_inf_norm,
)
from repro.circuit import Circuit, CurrentSource, Resistor, VoltageSource
from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
from repro.errors import ConvergenceError, StampError


def _spread_matrix(decades: float, n: int = 6, seed: int = 0) -> np.ndarray:
    """A well-posed but badly scaled SPD-ish test matrix."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n)) + n * np.eye(n)
    scales = np.logspace(0.0, -decades, n)
    return base * scales[:, None]


class TestCondest:
    def test_identity(self):
        assert onenorm_condest(np.eye(4)) == pytest.approx(1.0)

    def test_matches_exact_condition_number(self):
        A = _spread_matrix(6.0)
        assert onenorm_condest(A) == pytest.approx(np.linalg.cond(A, 1),
                                                   rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_at_100_unknowns(self, seed):
        # Larger than any cell testbench (23-25 unknowns) or test array
        # (44): the condition number is exact at every order.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((100, 100)) + 100 * np.eye(100)
        assert onenorm_condest(A) == pytest.approx(np.linalg.cond(A, 1),
                                                   rel=1e-9)

    def test_singular_matrix_reports_inf(self):
        A = np.ones((3, 3))
        assert math.isinf(onenorm_condest(A))

    def test_singular_100_unknowns_reports_inf(self):
        # A node with no connection and no gmin stamps a zero row and
        # column.
        rng = np.random.default_rng(0)
        A = rng.standard_normal((100, 100)) + 100 * np.eye(100)
        A[57, :] = 0.0
        A[:, 57] = 0.0
        assert math.isinf(onenorm_condest(A))

    def test_empty_system(self):
        assert onenorm_condest(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_one_norm_per_exact_inversion(self, monkeypatch):
        """The reuse cache keeps the ``‖A‖₁`` its exact inversion took,
        bit for bit, instead of taking it a second time."""
        from repro.analysis import trust

        real_norm, real_inv = np.linalg.norm, np.linalg.inv
        calls = {"norm": 0, "inv": 0}

        def norm(*args, **kwargs):
            calls["norm"] += 1
            return real_norm(*args, **kwargs)

        def inv(*args, **kwargs):
            calls["inv"] += 1
            return real_inv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm)
        monkeypatch.setattr(np.linalg, "inv", inv)
        opts = TrustOptions()
        # The second matrix drifts too far from the first to reuse it.
        matrices = [_spread_matrix(2.0), _spread_matrix(2.0) + np.eye(6)]
        estimates = [trust._condest_with_reuse(A, opts) for A in matrices]
        assert calls == {"norm": 2, "inv": 2}
        monkeypatch.undo()
        assert opts._condest_cache.norm == np.linalg.norm(matrices[1], 1)
        assert estimates == [onenorm_condest(A) for A in matrices]


class TestEquilibration:
    def test_scales_are_powers_of_two(self):
        A = _spread_matrix(9.0)
        r, c = equilibration_scales(A)
        for s in np.concatenate([r, c]):
            mantissa, _ = np.frexp(s)
            assert mantissa == pytest.approx(0.5)  # exact power of two

    def test_equilibration_reduces_condition(self):
        A = _spread_matrix(10.0)
        r, c = equilibration_scales(A)
        scaled = A * r[:, None] * c[None, :]
        assert onenorm_condest(scaled) < onenorm_condest(A) / 1e3

    def test_equilibrated_solve_matches_plain_on_clean_system(self):
        A = _spread_matrix(1.0)
        b = np.arange(1.0, A.shape[0] + 1.0)
        np.testing.assert_allclose(equilibrated_solve(A, b),
                                   np.linalg.solve(A, b),
                                   rtol=1e-10, atol=1e-12)

    def test_singular_still_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            equilibrated_solve(np.ones((2, 2)), np.ones(2))


class TestRefine:
    def test_refinement_reduces_residual(self):
        A = _spread_matrix(6.0)
        b = np.ones(A.shape[0])
        x = np.linalg.solve(A, b)
        # Poison the solution slightly so there is something to refine.
        x_bad = x * (1.0 + 1e-6)
        refined, rounds = refine(A, b, x_bad, rounds=2)
        assert rounds >= 1
        assert residual_inf_norm(A, b, refined) \
            < residual_inf_norm(A, b, x_bad)

    def test_no_rounds_requested(self):
        A = np.eye(2)
        x, rounds = refine(A, np.ones(2), np.ones(2), rounds=0)
        assert rounds == 0


class TestCertify:
    def test_clean_solve_is_left_alone(self):
        A = 2.0 * np.eye(3)
        b = np.array([2.0, 4.0, 6.0])
        x = np.linalg.solve(A, b)
        out, cert = certify(A, b, x, TrustOptions())
        assert out is x  # untouched, not even copied
        assert cert.residual_norm == pytest.approx(0.0, abs=1e-15)
        assert cert.cond_estimate == pytest.approx(1.0)
        assert not cert.defended()

    def test_certify_disabled_returns_nan_fields(self):
        A = np.eye(2)
        _, cert = certify(A, np.ones(2), np.ones(2),
                          TrustOptions(certify=False))
        assert math.isnan(cert.residual_norm)
        assert math.isnan(cert.cond_estimate)

    def test_bad_residual_triggers_defenses(self):
        A = _spread_matrix(12.0)
        b = np.ones(A.shape[0])
        x_awful = np.linalg.solve(A, b) * 1.5   # way past threshold
        out, cert = certify(A, b, x_awful, TrustOptions())
        assert cert.defended()
        assert cert.residual_norm < cert.residual_before

    def test_certificate_json_round_trip(self):
        cert = Certificate(residual_norm=1e-12, cond_estimate=1e9,
                           refined=True, equilibrated=True,
                           refinement_rounds=1, residual_before=1e-3)
        payload = cert.to_dict()
        assert payload["refined"] is True
        assert payload["cond_estimate"] == pytest.approx(1e9)
        assert cert.rcond == pytest.approx(1e-9)

    @given(row_exp=st.integers(min_value=-20, max_value=20),
           col_exp=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_solution_invariant_under_row_column_scaling(self, row_exp,
                                                         col_exp):
        """Property (satellite): scaling rows of [A|b] by 2^row_exp and
        a column of A by 2^col_exp (with the matching unknown rescale)
        must not change the equilibrated solution beyond roundoff."""
        A = _spread_matrix(4.0, seed=7)
        b = np.arange(1.0, A.shape[0] + 1.0)
        x_ref = equilibrated_solve(A, b)

        r = 2.0 ** row_exp
        c = 2.0 ** col_exp
        A_scaled = A * r
        A_scaled[:, 0] *= c
        x_scaled = equilibrated_solve(A_scaled, b * r)
        # unknown 0 was rescaled by 1/c; undo it before comparing.
        x_back = x_scaled.copy()
        x_back[0] *= c
        np.testing.assert_allclose(x_back, x_ref, rtol=1e-9, atol=1e-12)


def _ill_conditioned_rail(g_leak: float = 1e-10):
    """A floating virtual-rail deck spanning ~11 decades of conductance.

    ``vvdd`` hangs behind an almost-off power switch (modelled as a huge
    resistor) while the bitline side carries a stiff low-impedance
    branch — the exact structure a super-cutoff shutdown produces.  The
    leakage conductance stays above the gmin floor so the rail voltage
    is set by the leakage divider, not by gmin.
    """
    c = Circuit("floating-vvdd")
    c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
    # Cut-off power switch: pS-scale path onto the virtual rail.
    c.add(Resistor("rsw", "vdd", "vvdd", 1.0 / g_leak))
    c.add(Resistor("rleak", "vvdd", "0", 1.0 / g_leak))
    # Stiff periphery on the same matrix: 10 S branch.
    c.add(Resistor("rstiff", "vdd", "bl", 0.1))
    c.add(Resistor("rload", "bl", "0", 0.1))
    return c


class TestSolutionAnnotations:
    def test_operating_point_carries_certificate(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        sol = operating_point(c)
        assert math.isfinite(sol.residual_norm)
        assert sol.residual_norm < 1e-9
        assert math.isfinite(sol.cond_estimate)
        assert sol.cond_estimate >= 1.0
        assert sol.cert is not None
        assert sol.refined == sol.cert.defended()

    def test_dc_sweep_solutions_certified(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        res = dc_sweep(c, "v", [0.5, 1.0, 1.5])
        assert np.all(np.isfinite(res.residual_norms()))
        assert np.all(np.isfinite(res.cond_estimates()))

    def test_transient_carries_aggregates(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        result = transient(c, 1e-9)
        assert math.isfinite(result.residual_norm)
        assert math.isfinite(result.cond_estimate)
        assert result.stats["certified_steps"] >= result.stats["accepted_steps"]
        assert result.stats["defended_steps"] >= 0.0

    def test_nonlinear_deck_certifies(self):
        c = Circuit("inv")
        c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
        c.add(VoltageSource("vin", "in", "0", dc=0.45))
        c.add(FinFET("mp", "out", "in", "vdd", PFET_20NM_HP))
        c.add(FinFET("mn", "out", "in", "0", NFET_20NM_HP))
        sol = operating_point(c)
        # Amps-scale residual of a FinFET deck: far below device currents.
        assert sol.residual_norm < 1e-9
        assert sol.cond_estimate > 1.0

    def test_ill_conditioned_rail_defends_and_certifies(self):
        """Acceptance: the floating-VVDD deck crosses the rcond
        threshold, the defenses fire, and the result still certifies."""
        from repro.analysis.solver import GMIN_FLOOR

        g_leak = 1e-10
        c = _ill_conditioned_rail(g_leak)
        trust = TrustOptions(rcond_threshold=1e-10)
        sol = operating_point(c)
        # ~11 decades of conductance spread shows in the estimate ...
        assert sol.cond_estimate > 1e9
        # ... and a direct certified solve through tightened thresholds
        # fires the equilibration + refinement path.
        c.compile()
        ctx = Context()
        x = newton_solve(c, ctx, np.zeros(c.size),
                         NewtonOptions(trust=trust))
        cert = ctx.cert
        assert cert is not None
        assert cert.equilibrated or cert.refined
        assert math.isfinite(cert.residual_norm)
        assert cert.residual_norm <= max(cert.residual_before, 1e-12)
        # The rail solves to the (gmin-loaded) leakage divider midpoint.
        expected = 0.9 * g_leak / (2.0 * g_leak + GMIN_FLOOR)
        vvdd = x[c.index_of("vvdd")]
        assert vvdd == pytest.approx(expected, rel=1e-6)


class TestStampGuard:
    class _NanDevice(Resistor):
        def stamp(self, stamper, ctx):
            p, n = self.node_index
            stamper.conductance(p, n, float("nan"))

    def _deck(self):
        c = Circuit("broken")
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", 1e3))
        c.add(self._NanDevice("bad", "b", "0", 1e3))
        c.compile()
        return c

    def test_dc_stamp_guard_fails_fast_with_provenance(self):
        c = self._deck()
        with pytest.raises(StampError) as info:
            newton_solve(c, Context(), np.zeros(c.size))
        err = info.value
        assert "bad" in str(err)
        assert err.offenders
        assert err.offenders[0]["element"] == "bad"
        assert "b" in err.offenders[0]["rows"]
        payload = err.to_dict()
        assert payload["kind"] == "stamp_failure"

    def test_stamp_guard_passes_through_operating_point(self):
        """No recovery rung can fix a NaN deck: the ladder must not
        swallow the StampError into dozens of doomed rung attempts."""
        c = self._deck()
        with pytest.raises(StampError):
            operating_point(c)

    def test_transient_mode_stays_convergence_error(self):
        """In transient the failure may be time-local, so the integrator
        keeps dt-cut/backoff ownership via ConvergenceError."""
        c = self._deck()
        ctx = Context(mode="tran", time=1e-9, dt=1e-12,
                      x=np.zeros(c.size))
        with pytest.raises(ConvergenceError) as info:
            newton_solve(c, ctx, np.zeros(c.size))
        assert not isinstance(info.value, StampError)
        assert "bad" in str(info.value)

    def test_locate_offenders_and_summary(self):
        c = self._deck()
        ctx = Context(x=np.zeros(c.size))
        offenders = locate_nonfinite_stamps(c, ctx)
        assert [o["element"] for o in offenders] == ["bad"]
        assert "bad" in describe_offenders(offenders)
        assert describe_offenders([])  # empty case has a message too

    def test_nonfinite_initial_guess_rejected(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        c.compile()
        guess = np.full(c.size, np.nan)
        with pytest.raises(ConvergenceError):
            newton_solve(c, Context(), guess)


class _BadConductance(Resistor):
    """A resistor that stamps ``bad`` as its conductance."""

    def __init__(self, name, p, n, bad):
        super().__init__(name, p, n, 1e3)
        self.bad = bad

    def stamp(self, stamper, ctx):
        p, n = self.node_index
        stamper.conductance(p, n, self.bad)


def _bad_element(kind):
    """Element ``bad`` stamping one kind of non-finite value."""
    if kind == "rhs-inf":
        return CurrentSource("bad", "b", "0", dc=float("inf"))
    value = {"nan": float("nan"), "+inf": float("inf"),
             "-inf": float("-inf")}[kind]
    return _BadConductance("bad", "b", "0", value)


class TestFinitenessGuards:
    """Each finiteness test of ``newton_solve`` (the assembled system, the
    initial guess, the solution) sees NaN, +inf and -inf alike and keeps
    its error type and message."""

    KINDS = ["nan", "+inf", "-inf", "rhs-inf"]

    @staticmethod
    def _deck(bad=None):
        c = Circuit("guarded")
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", 1e3))
        if bad is not None:
            c.add(bad)
        c.compile()
        return c

    @pytest.mark.parametrize("kind", KINDS)
    def test_dc_stamp_error_names_the_element(self, kind):
        c = self._deck(_bad_element(kind))
        with pytest.raises(StampError) as info:
            newton_solve(c, Context(), np.zeros(c.size))
        assert "non-finite MNA stamp rejected before solve" in str(info.value)
        assert [o["element"] for o in info.value.offenders] == ["bad"]
        assert "b" in info.value.offenders[0]["rows"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_transient_stamp_stays_convergence_error(self, kind):
        c = self._deck(_bad_element(kind))
        ctx = Context(mode="tran", time=1e-9, dt=1e-12, x=np.zeros(c.size))
        with pytest.raises(ConvergenceError) as info:
            newton_solve(c, ctx, np.zeros(c.size))
        assert not isinstance(info.value, StampError)
        assert "non-finite MNA stamp at iteration 0" in str(info.value)
        assert "bad" in str(info.value)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")],
                             ids=["+inf", "-inf"])
    def test_infinite_initial_guess_rejected(self, value):
        c = self._deck()
        guess = np.zeros(c.size)
        guess[1] = value
        with pytest.raises(ConvergenceError, match="non-finite initial guess"):
            newton_solve(c, Context(), guess)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    def test_nonfinite_solution_rejected(self, value, monkeypatch):
        c = self._deck()
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: np.full(len(b), value))
        with pytest.raises(ConvergenceError) as info:
            newton_solve(c, Context(), np.zeros(c.size))
        assert not isinstance(info.value, StampError)
        assert "non-finite solution at iteration 0" in str(info.value)


class TestAccumulator:
    def test_folds_solutions_and_certificates(self):
        acc = TrustAccumulator()
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        acc.note(operating_point(c))
        acc.note(Certificate(residual_norm=1e-8, cond_estimate=1e10,
                             equilibrated=True))
        extras = acc.as_extras()
        assert extras["trust_certified_solves"] == 2.0
        assert extras["trust_defended_solves"] == 1.0
        assert extras["trust_cond_estimate_max"] == pytest.approx(1e10)
        assert extras["trust_residual_norm_max"] >= 1e-8

    def test_nan_fields_do_not_poison_maxima(self):
        acc = TrustAccumulator()
        acc.note(Certificate())   # all-NaN certificate
        assert acc.solves == 1
        assert acc.residual_norm_max == 0.0
        assert math.isfinite(acc.as_extras()["trust_cond_estimate_max"])
