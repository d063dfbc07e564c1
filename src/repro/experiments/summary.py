"""One-shot reproduction report: every artefact, one document.

:func:`run_summary` regenerates Table I and Figs. 1, 3, 4, 5, 7(a),
7(b), 8, 9(a) and 9(b) (at configurable resolution), checks each of the
paper's headline claims against the fresh numbers, and renders a single
consolidated report — the "reproduce the paper" button
(``python -m repro all``).  Fig. 6 and Fig. 7(c) are not in it; run
``python -m repro fig6`` and ``python -m repro fig7c``.

The report declares its characterisation points up front
(:func:`summary_points`), so ``workers`` can prewarm them all as one
campaign before the serial assembly reads them from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..cells import PowerDomain
from ..pg.bet import break_even_time
from ..pg.sequences import Architecture, BenchmarkSpec
from ..units import format_eng
from .context import ExperimentContext
from .fig1 import run_fig1
from .fig3 import run_fig3
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig7 import run_fig7a, run_fig7b
from .fig8 import run_fig8
from .fig9 import N_VALUES, panel_card, run_fig9
from .report import render_table
from .table1 import run_table1

if TYPE_CHECKING:
    from ..exec import CampaignResult

#: Domain depths the scorecard's claims read (at Table I).
SCORECARD_DEPTHS = (32, 512, 2048)


@dataclass
class ClaimCheck:
    """One verified headline claim."""

    claim: str
    measured: str
    passed: bool


@dataclass
class SummaryResult:
    """The consolidated reproduction report."""

    claims: List[ClaimCheck]
    sections: List[Tuple[str, str]] = field(default_factory=list)
    #: The prewarm campaign's result; ``None`` for a serial report.
    prewarm: Optional["CampaignResult"] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self) -> str:
        rows = [
            ("PASS" if c.passed else "FAIL", c.claim, c.measured)
            for c in self.claims
        ]
        parts = [render_table(
            ("", "paper claim", "measured"), rows,
            title="Headline-claim scorecard",
        )]
        for title, body in self.sections:
            parts.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}")
        return "\n\n".join(parts)


def summary_points(ctx: ExperimentContext, include_figures: bool = True):
    """The ``(domain, cond, mtj_params)`` points :func:`run_summary` reads.

    The scorecard reads three Table I depths.  The full report reads
    every Fig. 9 depth for both of its cards (Figs. 7 and 8 read a
    subset of the Table I ones): 14 points, 28 characterisations.
    """
    if not include_figures:
        return [(PowerDomain(n, 32), None, None) for n in SCORECARD_DEPTHS]
    return [(PowerDomain(n, 32), cond, mtj)
            for cond, mtj in (panel_card(ctx, "a"), panel_card(ctx, "b"))
            for n in N_VALUES]


def run_summary(ctx: Optional[ExperimentContext] = None,
                include_figures: bool = True,
                workers: Optional[int] = None) -> SummaryResult:
    """Regenerate everything and score the paper's claims.

    ``include_figures=False`` skips the per-figure section bodies and
    only produces the scorecard (faster; the claims still evaluate on
    freshly computed numbers).  ``workers`` prewarms every point of
    :func:`summary_points` through one :mod:`repro.exec` campaign first;
    assembly is serial either way, so the report is identical.
    """
    ctx = ctx or ExperimentContext()
    prewarm = None
    if workers is not None:
        prewarm = ctx.prewarm(summary_points(ctx, include_figures),
                              workers=workers, name="all")
    domain = PowerDomain(512, 32)
    model = ctx.energy_model(domain)
    nv, vt = model.nv, model.volatile

    def e(arch, n_rw, **kw):
        return model.e_cyc(BenchmarkSpec(arch, n_rw=n_rw, t_sl=100e-9,
                                         **kw))

    claims: List[ClaimCheck] = []

    ratio_1 = e(Architecture.NVPG, 1) / e(Architecture.OSR, 1)
    ratio_1e4 = e(Architecture.NVPG, 10000) / e(Architecture.OSR, 10000)
    claims.append(ClaimCheck(
        "E_cyc(NVPG) -> E_cyc(OSR) asymptotically with n_RW",
        f"ratio {ratio_1:.2f} -> {ratio_1e4:.3f} (n_RW 1 -> 1e4)",
        ratio_1e4 < 1.1 < ratio_1,
    ))
    nof_ratio = e(Architecture.NOF, 1000) / e(Architecture.OSR, 1000)
    claims.append(ClaimCheck(
        "E_cyc(NOF) much higher than OSR at large n_RW",
        f"NOF/OSR = {nof_ratio:.1f} at n_RW = 1000",
        nof_ratio > 2.0,
    ))
    claims.append(ClaimCheck(
        "NVPG read/write speed equals the 6T cell's",
        f"{format_eng(model.effective_cycle_time(Architecture.NVPG), 's')}"
        f" vs {format_eng(model.effective_cycle_time(Architecture.OSR), 's')}",
        model.effective_cycle_time(Architecture.NVPG)
        == model.effective_cycle_time(Architecture.OSR),
    ))
    nof_cycle = model.effective_cycle_time(Architecture.NOF)
    claims.append(ClaimCheck(
        "NOF suffers severe cycle-speed degradation",
        f"{format_eng(nof_cycle, 's')} effective cycle "
        f"({nof_cycle / model.cond.t_cycle:.1f}x)",
        nof_cycle > 3 * model.cond.t_cycle,
    ))
    claims.append(ClaimCheck(
        "super cutoff dramatically reduces shutdown static power",
        f"{format_eng(nv.p_shutdown_nominal, 'W')} -> "
        f"{format_eng(nv.p_shutdown, 'W')}",
        nv.p_shutdown < nv.p_shutdown_nominal / 5,
    ))
    bet10 = break_even_time(model, Architecture.NVPG, n_rw=10,
                            t_sl=100e-9).bet
    claims.append(ClaimCheck(
        "BET(NVPG) ~ several tens of microseconds",
        format_eng(bet10, "s"),
        1e-5 < bet10 < 5e-4,
    ))
    bet_nof = break_even_time(model, Architecture.NOF, n_rw=10,
                              t_sl=100e-9).bet
    claims.append(ClaimCheck(
        "BET(NOF) much longer than BET(NVPG)",
        f"{format_eng(bet_nof, 's')} ({bet_nof / bet10:.1f}x)",
        bet_nof > 3 * bet10,
    ))
    bet_free = break_even_time(model, Architecture.NVPG, n_rw=10,
                               t_sl=100e-9, store_free=True).bet
    claims.append(ClaimCheck(
        "store-free shutdown cuts BET to several microseconds",
        format_eng(bet_free, "s"),
        bet_free < bet10 / 3 and bet_free < 5e-5,
    ))
    small = ctx.energy_model(PowerDomain(32, 32))
    large = ctx.energy_model(PowerDomain(2048, 32))
    bet_small = break_even_time(small, Architecture.NVPG, n_rw=10,
                                t_sl=100e-9).bet
    bet_large = break_even_time(large, Architecture.NVPG, n_rw=10,
                                t_sl=100e-9).bet
    claims.append(ClaimCheck(
        "BET grows with the domain depth N",
        f"{format_eng(bet_small, 's')} (N=32) -> "
        f"{format_eng(bet_large, 's')} (N=2048)",
        bet_large > bet_small,
    ))

    result = SummaryResult(claims=claims, prewarm=prewarm)
    if include_figures:
        result.sections = [
            ("Table I", run_table1(ctx.cond).render()),
            ("Fig. 1", run_fig1(ctx, domain).render()),
            ("Fig. 3", run_fig3(ctx.cond, domain, points=13).render()),
            ("Fig. 4", run_fig4(ctx.cond, domain).render()),
            ("Fig. 5", run_fig5(ctx.cond).render()),
            ("Fig. 7(a)", run_fig7a(
                ctx, domain, n_rw_values=(1, 10, 100, 1000, 10000),
                t_sl_values=(100e-9,)).render()),
            ("Fig. 7(b)", run_fig7b(
                ctx, n_values=(32, 256, 2048),
                n_rw_values=(1, 10, 100)).render()),
            ("Fig. 8", run_fig8(ctx, domain, t_sd_points=25).render()),
            ("Fig. 9(a)", run_fig9(ctx, panel="a").render()),
            ("Fig. 9(b)", run_fig9(ctx, panel="b").render()),
        ]
    return result
