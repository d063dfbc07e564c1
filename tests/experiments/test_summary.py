"""Tests for the consolidated reproduction report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.characterize import store
from repro.experiments import ExperimentContext
from repro.experiments.summary import (ClaimCheck, SummaryResult,
                                       run_summary, summary_points)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def scorecard(ctx):
    return run_summary(ctx, include_figures=False)


def _report(ctx, include_figures, workers=None):
    """A report on an empty memo over the ``ctx`` fixture's disk cache,
    and how many store-bias derivations it ran."""
    calls = []
    derive = store.derive_store_biases

    def counted(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    fresh = ExperimentContext(cache_dir=ctx.cache_dir)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "derive_store_biases", counted)
        result = run_summary(fresh, include_figures=include_figures,
                             workers=workers)
    return fresh, result, len(calls)


@pytest.fixture(scope="module")
def full_report(ctx):
    """The serial full report."""
    return _report(ctx, include_figures=True)


class TestScorecard:
    def test_every_claim_passes(self, scorecard):
        failed = [c.claim for c in scorecard.claims if not c.passed]
        assert failed == []
        assert scorecard.all_passed

    def test_claim_inventory(self, scorecard):
        text = " ".join(c.claim for c in scorecard.claims)
        for phrase in ("asymptotically", "NOF", "super cutoff",
                       "store-free", "domain depth"):
            assert phrase in text
        assert len(scorecard.claims) >= 9

    def test_measured_strings_nonempty(self, scorecard):
        assert all(c.measured for c in scorecard.claims)

    def test_render_scorecard(self, scorecard):
        text = scorecard.render()
        assert "Headline-claim scorecard" in text
        assert "PASS" in text
        assert "FAIL" not in text

    def test_render_flags_failures(self):
        result = SummaryResult(claims=[
            ClaimCheck("it works", "no it doesn't", False),
        ])
        assert "FAIL" in result.render()
        assert not result.all_passed


class TestFullReport:
    def test_sections_present(self, full_report):
        _, result, _ = full_report
        titles = [t for t, _ in result.sections]
        for expected in ("Table I", "Fig. 1", "Fig. 3", "Fig. 4",
                         "Fig. 5", "Fig. 7(a)", "Fig. 7(b)", "Fig. 8",
                         "Fig. 9(a)", "Fig. 9(b)"):
            assert expected in titles
        text = result.render()
        assert "Fig. 9(b): BET vs domain depth N" in text

    def test_prewarmed_report_matches_serial(self, ctx, full_report):
        """The prewarm declares Fig. 9(b)'s points, and the figure reads
        them: the store biases behind both are derived once."""
        _, serial, serial_derivations = full_report
        _, prewarmed, derivations = _report(ctx, include_figures=True,
                                            workers=0)
        assert derivations == serial_derivations == 1
        assert prewarmed.prewarm is not None
        assert prewarmed.render() == serial.render()


class TestDeclaredPoints:
    """``summary_points`` is what a prewarm of the report characterises:
    exactly the cells a serial report reads."""

    @pytest.mark.parametrize("include_figures, cells",
                             [(False, 6), (True, 28)])
    def test_declared_points_are_the_cells_read(self, ctx, full_report,
                                                include_figures, cells):
        if include_figures:
            fresh, _, _ = full_report
        else:
            fresh, _, _ = _report(ctx, include_figures=False)
        declared = {fresh.point(kind, domain, cond, mtj)
                    for domain, cond, mtj in summary_points(
                        fresh, include_figures)
                    for kind in ("nv", "6t")}
        assert len(declared) == cells
        assert set(fresh._memo) == declared


def test_scorecard_cli_pooled_matches_inline(tmp_path):
    """``repro all --scorecard-only`` prewarms only the six cells the
    scorecard reads, and prints the same report pooled and inline."""
    outputs = []
    for workers in ("2", "0"):
        cache = tmp_path / f"cache-{workers}"
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--scorecard-only",
             "--workers", workers],
            env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        assert b"campaign 'all': 6/6 completed" in run.stderr
        assert len(list(cache.glob("*.json"))) == 6
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
