"""Failure-forensics tests: true KCL residuals, damping starvation,
structured timestep errors, and the render/dump/load round trip."""

import json
import math

import numpy as np
import pytest

from repro.analysis.mna import Context
from repro.analysis.solver import (
    NewtonOptions,
    kcl_residual,
    newton_solve,
    row_labels,
    worst_offenders,
)
from repro.analysis.transient import TransientOptions, transient
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.circuit.netlist import Element
from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
from repro.errors import ConvergenceError, TimestepError
from repro.recovery import (
    chaos_report,
    dump_failure,
    load_failure,
    render_failure,
)
from repro.recovery.ladder import RecoveryOptions


def _latch(vdd=0.9):
    c = Circuit("latch")
    c.add(VoltageSource("vdd", "vdd", "0", dc=vdd))
    c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
    c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
    return c


def _failing_error(max_iterations=4):
    c = _latch()
    c.compile()
    with pytest.raises(ConvergenceError) as info:
        newton_solve(c, Context(), np.zeros(c.size),
                     NewtonOptions(max_iterations=max_iterations))
    return c, info.value


class TestKclResidual:
    def test_residual_is_true_kcl_infnorm_at_final_iterate(self):
        """The satellite fix: ``err.residual`` must be ``‖A·x − b‖∞`` in
        amps at the returned iterate — not a voltage-delta norm."""
        c, err = _failing_error()
        assert err.x is not None
        x = np.asarray(err.x)
        r = kcl_residual(c, Context(), x)
        assert err.residual == pytest.approx(float(np.max(np.abs(r))),
                                             rel=1e-9)

    def test_residual_vector_matches_helper(self):
        c, err = _failing_error()
        r = kcl_residual(c, Context(), np.asarray(err.x))
        np.testing.assert_allclose(np.asarray(err.residual_vector), r,
                                   rtol=1e-9)

    def test_linear_circuit_solution_has_tiny_residual(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r1", "a", "b", 1e3))
        c.add(Resistor("r2", "b", "0", 1e3))
        c.compile()
        x = newton_solve(c, Context(), np.zeros(c.size))
        r = kcl_residual(c, Context(), x)
        assert float(np.max(np.abs(r))) < 1e-9

    def test_worst_offenders_named_and_sorted(self):
        c, err = _failing_error()
        assert err.worst_nodes
        names = [n for n, _ in err.worst_nodes]
        labels = set(row_labels(c))
        assert set(names) <= labels
        magnitudes = [abs(v) for _, v in err.worst_nodes]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_row_labels_cover_branches(self):
        c = _latch()
        labels = row_labels(c)
        assert "I(vdd)" in labels
        assert len(labels) == c.size

    def test_worst_offenders_count(self):
        c = _latch()
        c.compile()
        r = np.arange(float(c.size))
        assert len(worst_offenders(c, r, count=2)) == 2


class TestDampingStarvation:
    def test_damped_streak_surfaced(self):
        """With a tiny budget every step is damped: the error must carry
        the streak and flag the starvation."""
        _, err = _failing_error(max_iterations=2)
        assert err.damped_streak == 2
        assert "damping-starved" in str(err)

    def test_streak_reset_by_undamped_steps(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        c.compile()
        # A linear solve converges undamped; nothing to report.
        x = newton_solve(c, Context(), np.zeros(c.size))
        assert x[c.index_of("a")] == pytest.approx(1.0)


class _NanAfter(Element):
    """Stamps a well-behaved conductance until ``t_bad``, NaN afterward."""

    is_linear = False

    def __init__(self, name, p, t_bad):
        super().__init__(name, (p, "0"))
        self.t_bad = t_bad

    def stamp(self, stamper, ctx):
        p, _ = self.node_index
        value = float("nan") if ctx.time > self.t_bad else 1e-6
        stamper.conductance(p, -1, value)


class TestTimestepError:
    def test_structured_context(self):
        c = Circuit("doomed")
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "b", 1e3))
        c.add(_NanAfter("bad", "b", t_bad=0.5e-9))
        with pytest.raises(TimestepError) as info:
            transient(c, 2e-9, options=TransientOptions(dt_initial=0.1e-9))
        err = info.value
        assert math.isfinite(err.time)
        assert err.time <= 0.5e-9 + 1e-12
        assert err.rejected_steps > 0
        assert err.dt_history
        assert isinstance(err.cause, ConvergenceError)
        payload = err.to_dict()
        assert payload["kind"] == "timestep_failure"
        assert payload["cause"]["kind"] == "convergence_failure"


class TestRenderDumpLoad:
    def test_convergence_round_trip(self, tmp_path):
        _, err = _failing_error()
        path = dump_failure(err, tmp_path / "failure.json")
        payload = load_failure(path)
        assert payload["kind"] == "convergence_failure"
        text = render_failure(payload)
        assert "KCL residual" in text
        assert "worst offenders" in text

    def test_ladder_trace_rendered(self):
        c = _latch()
        from repro.recovery import recover_dc
        options = RecoveryOptions(damping_factors=(), gmin_steps=(),
                                  pseudo_transient=False, source_ramp=False)
        with pytest.raises(ConvergenceError) as info:
            recover_dc(c, newton=NewtonOptions(max_iterations=2),
                       options=options)
        text = render_failure(info.value)
        assert "recovery ladder" in text
        assert "plain" in text

    def test_render_accepts_raw_dict(self):
        assert "unknown" not in render_failure(
            {"kind": "convergence_failure", "message": "boom"})

    def test_render_unknown_kind_dumps_json(self):
        payload = {"kind": "mystery", "detail": 42}
        assert json.loads(render_failure(payload)) == payload


class TestChaosAudit:
    """The one audit every fault-injection suite returns."""

    @staticmethod
    def _record(name, ok=True, actual="converged"):
        return {"name": name, "expected": "converged", "actual": actual,
                "ok": ok}

    def test_every_record_ok_and_nothing_lost_passes(self):
        report = chaos_report("demo", [self._record("a"), self._record("b")],
                              n_in=2, seed=7)
        assert report["kind"] == "chaos_report"
        assert report["ok"] is True
        assert report["n_in"] == report["n_out"] == 2
        assert report["counts"] == {"converged": 2}
        assert report["seed"] == 7

    def test_lost_record_fails_even_when_every_record_is_ok(self):
        report = chaos_report("demo", [self._record("a")], n_in=2)
        assert report["n_out"] == 1
        assert all(r["ok"] for r in report["records"])
        assert report["ok"] is False

    def test_one_bad_record_fails(self):
        report = chaos_report("demo", [self._record("a"),
                                       self._record("b", ok=False,
                                                    actual="missing")],
                              n_in=2)
        assert report["ok"] is False
        assert report["counts"] == {"converged": 1, "missing": 1}

    def test_render_marks_bad_records_and_the_verdict(self):
        report = chaos_report("demo", [self._record("a"),
                                       self._record("b", ok=False,
                                                    actual="missing")],
                              n_in=2)
        text = render_failure(report)
        assert text.splitlines()[0] == \
            "chaos report: demo — 2 in, 2 out — FAIL"
        assert "[ok ] a: converged" in text
        assert "[BAD] b: missing (want converged)" in text
