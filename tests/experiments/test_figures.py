"""Smoke + shape tests for every experiment module.

The deep quantitative assertions about the paper's claims live in
``tests/integration/test_paper_claims.py``; here each figure runner is
checked for structure, rendering and internal consistency at reduced
resolution so the whole file stays fast.
"""

import numpy as np
import pytest

from repro.cells import PowerDomain
from repro.experiments import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7a,
    run_fig7b,
    run_fig7c,
    run_fig8,
    run_fig9,
    run_table1,
)
from repro.pg.sequences import Architecture

SMALL_DOMAIN = PowerDomain(64, 32)
N_RW = (1, 10, 100, 1000)


class TestTable1:
    def test_runs_and_renders(self):
        result = run_table1()
        text = result.render()
        assert "Table I" in text
        # Spot-check paper constants are reproduced verbatim.
        assert "0.65 V" in text          # V_SR
        assert "20.00 nm" in text        # L and MTJ diameter
        assert "6.37 kohm" in text       # R_P
        assert "12.73 kohm" in text      # R_AP
        assert "15.71 uA" in text        # Ic

    def test_row_count(self):
        assert len(run_table1().rows) > 20


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(domain=SMALL_DOMAIN, points=11)

    def test_panels_present(self, result):
        assert len(result.leakage.v_ctrl) == 11
        assert len(result.store_h.bias) == 11
        assert len(result.store_l.bias) == 11

    def test_render_contains_design_points(self, result):
        text = result.render()
        assert "Fig. 3(a)" in text
        assert "optimal V_CTRL" in text
        assert "x Ic" in text


class TestFig4:
    def test_shape(self):
        result = run_fig4(domain=SMALL_DOMAIN, nfsw_values=(1, 3, 5, 7))
        assert list(result.sweep.nfsw) == [1, 3, 5, 7]
        assert "Fig. 4" in result.render()
        assert result.nfsw_for_target is not None


class TestFig5:
    def test_timelines(self):
        result = run_fig5()
        assert len(result.timelines) == 3
        text = result.render()
        for arch in ("OSR", "NVPG", "NOF"):
            assert arch in text
        # NOF pass is longer than OSR's by wake+store overheads.
        assert result.durations[2] > result.durations[0]


class TestFig6:
    """The Fig. 6 headline numbers EXPERIMENTS.md states (n_RW = 2)."""

    @pytest.fixture(scope="class")
    def result(self, ctx, domain):
        return run_fig6(ctx, domain)

    def test_total_energy_order(self, result):
        e = {name: trace.total_energy for name, trace in result.traces.items()}
        assert e["osr"] < e["nvpg"] < e["nof"]
        assert e["osr"] == pytest.approx(86.96e-15, rel=1e-3)
        assert e["nvpg"] == pytest.approx(404.06e-15, rel=1e-3)
        assert e["nof"] == pytest.approx(763.11e-15, rel=1e-3)

    def test_mtj_events(self, result):
        events = {name: len(trace.events)
                  for name, trace in result.traces.items()}
        assert events == {"osr": 0, "nvpg": 2, "nof": 2}

    def test_effective_cycle(self, result, ctx, nv_char):
        t_cyc = ctx.cond.t_cycle
        cyc = result.effective_cycle
        assert cyc["6T/OSR"] == cyc["NVPG"] == t_cyc
        assert cyc["NOF"] == t_cyc + nv_char.t_restore + nv_char.t_store
        assert cyc["NOF"] == pytest.approx(25.33e-9, rel=1e-3)
        assert cyc["NOF"] / t_cyc == pytest.approx(7.6, rel=1e-2)


class TestFig7:
    def test_fig7a_families(self, ctx):
        result = run_fig7a(ctx, domain=SMALL_DOMAIN, n_rw_values=N_RW,
                           t_sl_values=(0.0, 100e-9))
        assert len(result.sweeps) == 2
        sweep = result.sweeps[0]
        assert set(sweep.e_cyc) == {"osr", "nvpg", "nof"}
        assert "E_cyc" in result.render()

    def test_fig7a_larger_t_sl_raises_energy(self, ctx):
        result = run_fig7a(ctx, domain=SMALL_DOMAIN, n_rw_values=(10,),
                           t_sl_values=(0.0, 1e-6))
        e0 = result.sweeps[0].e_cyc["osr"][0]
        e1 = result.sweeps[1].e_cyc["osr"][0]
        assert e1 > e0

    def test_fig7b_domain_family(self, ctx):
        result = run_fig7b(ctx, n_values=(32, 128), n_rw_values=(1, 10))
        assert len(result.sweeps) == 2
        assert "128 B" in result.sweeps[0].label

    def test_fig7c_t_sd_family(self, ctx):
        result = run_fig7c(ctx, domain=SMALL_DOMAIN, n_rw_values=(10,),
                           t_sd_values=(10e-6, 1e-3))
        e_small = result.sweeps[0].e_cyc["nvpg"][0]
        e_large = result.sweeps[1].e_cyc["nvpg"][0]
        assert e_large > e_small

    def test_rows_match_grid(self, ctx):
        result = run_fig7a(ctx, domain=SMALL_DOMAIN, n_rw_values=N_RW,
                           t_sl_values=(0.0,))
        rows = result.sweeps[0].rows()
        assert len(rows) == len(N_RW)
        assert all(len(r) == 4 for r in rows)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_fig8(ctx, domain=SMALL_DOMAIN, n_rw_values=(10, 100),
                        t_sd_points=41)

    def test_curve_inventory(self, result):
        # (NVPG + NOF) x two n_RW values.
        assert len(result.curves) == 4

    def test_normalised_curves_cross_unity(self, result):
        for curve in result.curves:
            if curve.bet_numeric is None:
                continue
            norm = curve.e_cyc_normalised
            assert norm[0] > 1.0
            assert norm[-1] < 1.0

    def test_closed_form_matches_numeric(self, result):
        for curve in result.curves:
            if curve.bet_numeric is None:
                continue
            assert curve.bet_numeric == pytest.approx(
                curve.bet_closed_form.bet, rel=0.05
            )

    def test_render(self, result):
        text = result.render()
        assert "Fig. 8(a)" in text
        assert "BET" in text


class TestFig9:
    def test_panel_a_series(self, ctx):
        result = run_fig9(ctx, panel="a", n_values=(32, 128),
                          n_rw_values=(10,))
        assert result.panel == "a"
        labels = [s.label for s in result.series]
        assert "n_RW=10" in labels
        assert "n_RW=10 (store-free)" in labels
        assert "Fig. 9(a)" in result.render()

    def test_store_free_always_shorter(self, ctx):
        result = run_fig9(ctx, panel="a", n_values=(32, 256),
                          n_rw_values=(10,))
        by_label = {s.label: s.bet for s in result.series}
        assert np.all(by_label["n_RW=10 (store-free)"]
                      < by_label["n_RW=10"])

    def test_bad_panel_rejected(self, ctx):
        with pytest.raises(ValueError):
            run_fig9(ctx, panel="c")
