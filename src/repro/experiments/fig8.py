"""Fig. 8 — E_cyc vs t_SD and the break-even-time crossover.

* (a) E_cyc(t_SD) for the three architectures at fixed n_RW: straight
  lines whose slopes are the standby static powers; the NVPG/OSR crossing
  is the BET.
* (b) E_cyc normalised by OSR for n_RW = 10, 100, 1000: the BET is where
  a curve crosses 1.0.  The closed-form BET of :mod:`repro.pg.bet` is
  reported next to the numerically extracted crossing as a consistency
  check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cells import PowerDomain
from ..pg.bet import BetResult, bet_curve_crossing, break_even_time
from ..pg.sequences import Architecture, BenchmarkSpec
from ..units import format_eng
from .context import ExperimentContext
from .report import render_table

ARCHES = (Architecture.OSR, Architecture.NVPG, Architecture.NOF)


@dataclass
class Fig8Curve:
    """One normalised E_cyc(t_SD) family member."""

    architecture: Architecture
    n_rw: int
    t_sd: np.ndarray
    e_cyc: np.ndarray
    e_cyc_normalised: np.ndarray
    bet_numeric: Optional[float]
    bet_closed_form: BetResult


@dataclass
class Fig8Result:
    t_sd: np.ndarray
    absolute: Dict[str, np.ndarray]   # panel (a): arch -> E_cyc at n_rw_a
    n_rw_panel_a: int
    curves: List[Fig8Curve]           # panel (b)

    def render(self) -> str:
        rows_a = [
            (format_eng(float(t), "s"),) + tuple(
                float(self.absolute[a.value][i]) for a in ARCHES
            )
            for i, t in enumerate(self.t_sd)
        ]
        parts = [render_table(
            ("t_SD", "OSR [J]", "NVPG [J]", "NOF [J]"),
            rows_a,
            title=f"Fig. 8(a): E_cyc vs t_SD (n_RW = {self.n_rw_panel_a})",
        )]
        rows_b = []
        for c in self.curves:
            rows_b.append((
                c.architecture.value, c.n_rw,
                format_eng(c.bet_closed_form.bet, "s"),
                "-" if c.bet_numeric is None else format_eng(c.bet_numeric, "s"),
            ))
        parts.append(render_table(
            ("arch", "n_RW", "BET (closed form)", "BET (curve crossing)"),
            rows_b,
            title="Fig. 8(b): break-even times",
        ))
        return "\n\n".join(parts)


def run_fig8(ctx: Optional[ExperimentContext] = None,
             domain: Optional[PowerDomain] = None,
             n_rw_values: Sequence[int] = (10, 100, 1000),
             t_sl: float = 100e-9,
             t_sd_points: int = 61,
             t_sd_max: float = 100e-3,
             workers: Optional[int] = None) -> Fig8Result:
    """Regenerate Fig. 8.

    ``workers`` prewarms the cell characterisations through a
    fault-tolerant :mod:`repro.exec` campaign; the assembly is serial
    either way, so the numbers are identical.
    """
    ctx = ctx or ExperimentContext()
    domain = domain or PowerDomain()
    if workers is not None:
        ctx.prewarm([(domain, None, None)], workers=workers, name="fig8")
    model = ctx.energy_model(domain)
    t_sd = np.logspace(-6, np.log10(t_sd_max), t_sd_points)

    def curve(arch: Architecture, n_rw: int) -> np.ndarray:
        return np.array([
            model.e_cyc(BenchmarkSpec(architecture=arch, n_rw=n_rw,
                                      t_sl=t_sl, t_sd=float(t)))
            for t in t_sd
        ])

    n_rw_a = n_rw_values[0]
    absolute = {a.value: curve(a, n_rw_a) for a in ARCHES}

    curves: List[Fig8Curve] = []
    for n_rw in n_rw_values:
        e_osr = curve(Architecture.OSR, n_rw)
        for arch in (Architecture.NVPG, Architecture.NOF):
            e_arch = curve(arch, n_rw)
            curves.append(Fig8Curve(
                architecture=arch,
                n_rw=n_rw,
                t_sd=t_sd,
                e_cyc=e_arch,
                e_cyc_normalised=e_arch / e_osr,
                bet_numeric=bet_curve_crossing(t_sd, e_arch, e_osr),
                bet_closed_form=break_even_time(model, arch, n_rw=n_rw,
                                                t_sl=t_sl),
            ))
    return Fig8Result(
        t_sd=t_sd,
        absolute=absolute,
        n_rw_panel_a=n_rw_a,
        curves=curves,
    )
