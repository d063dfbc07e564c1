"""Fig. 9 — BET as a function of the domain depth N.

* (a) base configuration (300 MHz, Jc = 5e6 A/cm^2): BET vs N for
  n_RW in {10, 100, 1000}, with and without store-free shutdown.  BET
  grows with N and n_RW (the leakage of the prolonged normal-operation
  phase dominates); store-free shutdown removes the store energy and cuts
  BET to a few microseconds.
* (b) fast configuration (1 GHz read/write, Jc = 1e6 A/cm^2): much
  shorter BET and larger feasible domain even without store-free.  The
  store biases for this card are re-derived from the Fig. 3 sweeps (the
  paper's methodology) so the store current scales down with the relaxed
  critical current — that is where the store-energy reduction comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cells import PowerDomain
from ..devices.mtj import MTJParams, MTJ_FIG9B
from ..pg.bet import break_even_time
from ..pg.modes import OperatingConditions
from ..pg.sequences import Architecture
from ..units import format_eng
from .context import ExperimentContext
from .report import render_table


@dataclass
class BetVsN:
    """BET(N) for one (n_RW, store_free) series."""

    label: str
    n_rw: int
    store_free: bool
    n_values: np.ndarray
    bet: np.ndarray

    def rows(self) -> List[Tuple[int, float]]:
        return [(int(n), float(b)) for n, b in zip(self.n_values, self.bet)]


@dataclass
class Fig9Result:
    panel: str
    series: List[BetVsN]

    def render(self) -> str:
        headers = ["N"] + [s.label for s in self.series]
        n_values = self.series[0].n_values
        rows = []
        for i, n in enumerate(n_values):
            rows.append((int(n),) + tuple(
                format_eng(float(s.bet[i]), "s") for s in self.series
            ))
        return render_table(
            headers, rows,
            title=f"Fig. 9({self.panel}): BET vs domain depth N",
        )


def _bet_series(ctx: ExperimentContext,
                cond: OperatingConditions,
                mtj: Optional[MTJParams],
                n_values: Sequence[int],
                n_rw: int,
                store_free: bool,
                word_bits: int,
                t_sl: float) -> BetVsN:
    bets = []
    for n in n_values:
        domain = PowerDomain(n_wordlines=int(n), word_bits=word_bits)
        model = ctx.energy_model(domain, cond=cond, mtj_params=mtj)
        result = break_even_time(model, Architecture.NVPG, n_rw=n_rw,
                                 t_sl=t_sl, store_free=store_free)
        bets.append(result.bet)
    suffix = " (store-free)" if store_free else ""
    return BetVsN(
        label=f"n_RW={n_rw}{suffix}",
        n_rw=n_rw,
        store_free=store_free,
        n_values=np.asarray(list(n_values), dtype=int),
        bet=np.asarray(bets),
    )


#: Fig. 9's domain depths; Fig. 7(b) sweeps the same seven.
N_VALUES = (32, 64, 128, 256, 512, 1024, 2048)


def panel_card(ctx: ExperimentContext, panel: str,
               first_depth: int = N_VALUES[0], word_bits: int = 32,
               ) -> Tuple[OperatingConditions, Optional[MTJParams]]:
    """``(cond, mtj_params)`` that Fig. 9 panel ``panel`` characterises.

    Panel "a" is the context's Table I card.  Panel "b" is 1 GHz
    operation with the relaxed Jc = 1e6 A/cm^2 card, whose store biases
    are re-derived (once per context) at the sweep's first depth.
    """
    if panel == "a":
        return ctx.cond, None
    if panel == "b":
        domain = PowerDomain(n_wordlines=int(first_depth),
                             word_bits=word_bits)
        return (ctx.store_biases(ctx.cond.fast_variant(), domain,
                                 MTJ_FIG9B),
                MTJ_FIG9B)
    raise ValueError(f"unknown Fig. 9 panel: {panel!r}")


def run_fig9(ctx: Optional[ExperimentContext] = None,
             panel: str = "a",
             n_values: Sequence[int] = N_VALUES,
             n_rw_values: Sequence[int] = (10, 100, 1000),
             word_bits: int = 32,
             t_sl: float = 100e-9,
             workers: Optional[int] = None) -> Fig9Result:
    """Regenerate Fig. 9(a) or 9(b).

    Panel "a" uses the Table I configuration with and without store-free
    shutdown; panel "b" switches to 1 GHz operation and the relaxed
    Jc = 1e6 A/cm^2 MTJ card (store-free not needed).

    ``workers`` prewarms the per-depth characterisations as a
    fault-tolerant :mod:`repro.exec` campaign (the store-bias derivation
    for panel "b" stays serial — it is one sweep, not a grid); figure
    assembly is serial either way, so the numbers are identical.
    """
    ctx = ctx or ExperimentContext()
    cond, mtj = panel_card(ctx, panel, n_values[0], word_bits)
    store_free_options = (False, True) if panel == "a" else (False,)

    if workers is not None:
        domains = [PowerDomain(n_wordlines=int(n), word_bits=word_bits)
                   for n in n_values]
        ctx.prewarm([(d, cond, mtj) for d in domains], workers=workers,
                    name=f"fig9{panel}")
    series = [
        _bet_series(ctx, cond, mtj, n_values, n_rw, store_free,
                    word_bits, t_sl)
        for store_free in store_free_options
        for n_rw in n_rw_values
    ]
    return Fig9Result(panel=panel, series=series)
