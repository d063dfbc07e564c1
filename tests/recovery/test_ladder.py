"""Recovery-ladder tests: pathological decks that fail a plain Newton
solve but converge through escalation, trace bookkeeping, and the
transient-local ladder."""

import numpy as np
import pytest

from repro.analysis import operating_point
from repro.analysis.dc import OperatingPointOptions
from repro.analysis.mna import Context
from repro.analysis.solver import NewtonOptions, newton_solve
from repro.circuit import Capacitor, Circuit, Resistor, VoltageSource
from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
from repro.errors import ConvergenceError
from repro.recovery import (
    LadderResult,
    RecoveryOptions,
    recover_dc,
    recover_transient_step,
)


def _latch(vdd=0.9):
    c = Circuit("latch")
    c.add(VoltageSource("vdd", "vdd", "0", dc=vdd))
    c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
    c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
    return c


STARVED = NewtonOptions(max_iterations=3)


class TestRecoverDc:
    def test_clean_solve_reports_no_rung(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        result = recover_dc(c)
        assert isinstance(result, LadderResult)
        assert result.rung is None
        assert not result.recovered
        assert [a.rung for a in result.trace] == ["plain"]

    def test_ladder_recovers_deck_plain_newton_cannot(self):
        """The headline behaviour: a deck the starved plain solve fails
        converges through the ladder, and the result matches a healthy
        direct solve."""
        c = _latch()
        c.compile()
        with pytest.raises(ConvergenceError):
            newton_solve(c, Context(), np.zeros(c.size), STARVED)

        result = recover_dc(c, newton=STARVED)
        assert result.recovered
        assert result.rung is not None
        # The recovered point satisfies the unmodified equations.
        from repro.analysis.solver import kcl_residual
        r = kcl_residual(c, Context(), result.x)
        assert float(np.max(np.abs(r))) < 1e-7

    def test_trace_records_failed_rungs_before_success(self):
        c = _latch()
        result = recover_dc(c, newton=STARVED)
        assert result.trace[0].rung == "plain"
        assert not result.trace[0].ok
        assert result.trace[-1].ok

    def test_disabled_ladder_raises_immediately(self):
        c = _latch()
        with pytest.raises(ConvergenceError) as info:
            recover_dc(c, newton=STARVED,
                       options=RecoveryOptions(enabled=False))
        assert [a["rung"] for a in info.value.ladder_trace] == ["plain"]

    def test_exhausted_ladder_carries_full_trace(self):
        c = _latch()
        options = RecoveryOptions(damping_factors=(0.5,),
                                  damping_iteration_boost=1,
                                  gmin_steps=(), pseudo_transient=False,
                                  source_ramp=False)
        with pytest.raises(ConvergenceError) as info:
            recover_dc(c, newton=NewtonOptions(max_iterations=2),
                       options=options)
        err = info.value
        rungs = [a["rung"] for a in err.ladder_trace]
        assert rungs == ["plain", "equilibrate", "damping"]
        assert "recovery ladder exhausted" in str(err)
        assert isinstance(err.__cause__, ConvergenceError)

    def test_equilibrate_rung_can_be_disabled(self):
        c = _latch()
        options = RecoveryOptions(equilibrate=False, damping_factors=(0.5,),
                                  damping_iteration_boost=1,
                                  gmin_steps=(), pseudo_transient=False,
                                  source_ramp=False)
        with pytest.raises(ConvergenceError) as info:
            recover_dc(c, newton=NewtonOptions(max_iterations=2),
                       options=options)
        rungs = [a["rung"] for a in info.value.ladder_trace]
        assert rungs == ["plain", "damping"]

    def test_starved_failure_boosts_damping_budget(self):
        """A damping-starved plain failure doubles the damping-rung
        iteration boost — visible in the trace detail."""
        c = _latch()
        # max_iterations=2 exits with every step damped (starved).
        result = recover_dc(c, newton=NewtonOptions(max_iterations=2),
                            options=RecoveryOptions(
                                damping_factors=(0.1,),
                                damping_iteration_boost=4))
        damping = [a for a in result.trace if a.rung == "damping"]
        assert damping
        assert "boost=8x" in damping[0].detail

    @pytest.mark.parametrize("max_iterations, plain_detail, boost", [
        (2, "Newton failed to converge in 2 iterations (2 consecutive "
            "damped steps at exit; damping-starved)", 8),
        (3, "Newton failed to converge in 3 iterations", 4),
    ], ids=["starved", "unstarved"])
    def test_starved_latch_full_trace(self, max_iterations, plain_detail,
                                      boost):
        """The damping boost reads the latest failure, which is the
        equilibrate rung's: starved at two iterations, not at three."""
        newton = NewtonOptions(max_iterations=max_iterations)
        result = recover_dc(_latch(), newton=newton)
        assert [(a.rung, a.ok, a.detail) for a in result.trace] == [
            ("plain", False, plain_detail),
            ("equilibrate", False, "forced row/column equilibration"),
            ("damping", True, f"damping=0.1, boost={boost}x"),
        ]
        assert result.rung == "damping"

    def test_ctx_is_the_accepted_solve(self):
        result = recover_dc(_latch(), newton=STARVED)
        assert result.recovered
        assert (result.ctx.mode, result.ctx.source_scale) == ("dc", 1.0)
        assert result.ctx.x is result.x
        assert result.ctx.cert is not None
        assert result.cert is result.ctx.cert

    def test_source_ramp_disabled_respected(self):
        c = _latch()
        options = RecoveryOptions(damping_factors=(), gmin_steps=(),
                                  pseudo_transient=False, source_ramp=False)
        with pytest.raises(ConvergenceError) as info:
            recover_dc(c, newton=NewtonOptions(max_iterations=2),
                       options=options)
        assert all(a["rung"] != "source-ramp"
                   for a in info.value.ladder_trace)

    def test_source_ramp_rescues_a_starved_solve(self):
        """With every other rung off, four iterations are too few from
        zero volts but enough for each step of the source ramp."""
        c = _latch()
        options = RecoveryOptions(equilibrate=False, damping_factors=(),
                                  gmin_steps=(), pseudo_transient=False)
        result = recover_dc(c, newton=NewtonOptions(max_iterations=4),
                            options=options)
        assert [(a.rung, a.ok) for a in result.trace] == [
            ("plain", False), ("source-ramp", True)]
        assert result.rung == "source-ramp"
        from repro.analysis.solver import kcl_residual
        r = kcl_residual(c, Context(), result.x)
        assert float(np.max(np.abs(r))) < 1e-7


class TestOperatingPointIntegration:
    def test_solution_annotated_clean(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        sol = operating_point(c)
        assert sol.recovery_rung is None
        assert sol.recovery_trace

    def test_solution_annotated_recovered(self):
        c = _latch()
        opts = OperatingPointOptions()
        opts.newton.max_iterations = 3
        sol = operating_point(c, options=opts)
        assert sol.recovery_rung is not None
        assert any(not a["ok"] for a in sol.recovery_trace)
        assert sol.voltage("vdd") == pytest.approx(0.9, rel=1e-3)

    def test_basin_preserved_through_recovery(self):
        """An ic-pinned solve going through the ladder must stay in the
        requested stability basin (source ramping is disabled for the
        clamp-release re-solve)."""
        c = _latch()
        opts = OperatingPointOptions()
        opts.newton.max_iterations = 3
        for q_high in (True, False):
            ic = {"q": 0.9 if q_high else 0.0,
                  "qb": 0.0 if q_high else 0.9}
            sol = operating_point(c, ic=ic, options=opts)
            if q_high:
                assert sol.voltage("q") > sol.voltage("qb")
            else:
                assert sol.voltage("q") < sol.voltage("qb")


class TestRecoverTransientStep:
    def _step_setup(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", 1e3))
        c.add(Resistor("r2", "b", "0", 1e3))
        c.compile()
        x_prev = newton_solve(c, Context(), np.zeros(c.size))
        ctx = Context(mode="tran", time=1e-9, dt=1e-12, method="trap",
                      x=x_prev)
        return c, ctx, x_prev

    def test_recovers_from_terrible_guess(self):
        c, ctx, x_prev = self._step_setup()
        guess = np.full(c.size, 1e6)   # absurd predictor output
        result = recover_transient_step(c, ctx, x_prev, guess,
                                        NewtonOptions(max_iterations=5))
        assert result is not None
        assert result.rung in ("damping", "backward-euler", "gmin-step")
        assert result.x[c.index_of("b")] == pytest.approx(0.5, rel=1e-3)

    def test_disabled_returns_none(self):
        c, ctx, x_prev = self._step_setup()
        result = recover_transient_step(
            c, ctx, x_prev, np.full(c.size, 1e6),
            NewtonOptions(max_iterations=1),
            options=RecoveryOptions(enabled=False))
        assert result is None


class TestTransientRungContext:
    """A salvaged step's ``ctx`` is the context its ``x`` was solved
    with, so the integrator commits with the method that produced it."""

    R, C, DT = 1e3, 1e-12, 1e-12

    def _rc_step(self):
        """One trapezoidal step of an RC charging from 0 V toward 1 V."""
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", self.R))
        c.add(Capacitor("c", "b", "0", self.C))
        c.compile()
        x_prev = np.zeros(c.size)
        x_prev[c.index_of("a")] = 1.0
        ctx = Context(mode="tran", time=self.DT, dt=self.DT, method="trap",
                      x=x_prev)
        for element in c.elements():
            element.init_state(ctx)
        return c, ctx, x_prev

    @pytest.mark.parametrize("rung, method, options, absurd_guess", [
        ("equilibrate", "trap", RecoveryOptions(), False),
        ("damping", "trap", RecoveryOptions(equilibrate=False), False),
        ("backward-euler", "be",
         RecoveryOptions(equilibrate=False, damping_factors=()), False),
        ("gmin-step", "be",
         RecoveryOptions(equilibrate=False, damping_factors=()), True),
    ], ids=["equilibrate", "damping", "backward-euler", "gmin-step"])
    def test_ctx_carries_the_method_that_produced_x(self, rung, method,
                                                    options, absurd_guess):
        c, ctx, x_prev = self._rc_step()
        guess = np.full(c.size, 1e6) if absurd_guess else x_prev.copy()
        result = recover_transient_step(c, ctx, x_prev, guess,
                                        NewtonOptions(max_iterations=5),
                                        options)
        assert result.rung == rung
        assert result.ctx.method == method
        assert (result.ctx.mode, result.ctx.time, result.ctx.dt) == (
            "tran", ctx.time, ctx.dt)
        assert result.ctx.cert is not None
        assert result.cert is result.ctx.cert
        # One step of the method's companion model: BE gives
        # 1 / (1 + RC/dt), the trapezoidal rule 1 / (1 + 2RC/dt).
        rc_over_dt = self.R * self.C / self.DT
        expected = 1.0 / (1.0 + (2.0 if method == "trap" else 1.0)
                          * rc_over_dt)
        assert result.x[c.index_of("b")] == pytest.approx(expected, rel=1e-6)


def test_gmin_floor_matches_the_solver():
    """The import cycle keeps the ladder's floor a literal: pin it."""
    from repro.analysis import solver
    from repro.recovery import ladder

    assert ladder.GMIN_FLOOR == solver.GMIN_FLOOR
    assert RecoveryOptions().gmin_steps[-1] == solver.GMIN_FLOOR
