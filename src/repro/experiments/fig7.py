"""Fig. 7 — E_cyc per cell as a function of n_RW.

Three panels:

* (a) t_SD = 0, t_SL swept from 0 to 1 us: NVPG approaches OSR
  asymptotically while NOF grows away from it; NVPG ~ NOF at n_RW = 1.
* (b) M = 32, N swept 32..2048 (128 B .. 8 kB domains), t_SL = 100 ns:
  the serialised store phase penalises NVPG at very small n_RW for large
  N, recovering by n_RW ~ 10.
* (c) t_SD swept 10 us .. 10 ms: the shutdown leakage term separates the
  architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells import PowerDomain
from ..pg.sequences import Architecture, BenchmarkSpec
from .context import ExperimentContext
from .report import render_table

#: Default n_RW grid (log-spaced, matching the paper's log axis).
DEFAULT_N_RW = (1, 2, 3, 5, 10, 20, 30, 50, 100, 200, 300, 500, 1000,
                2000, 3000, 5000, 10000)

ARCHES = (Architecture.OSR, Architecture.NVPG, Architecture.NOF)


@dataclass
class EcycSweep:
    """E_cyc(n_RW) for the three architectures at one parameter point."""

    label: str
    n_rw: np.ndarray
    e_cyc: Dict[str, np.ndarray]   # architecture value -> joules per cell

    def rows(self) -> List[Tuple]:
        out = []
        for i, n in enumerate(self.n_rw):
            out.append((int(n),) + tuple(
                float(self.e_cyc[a.value][i]) for a in ARCHES
            ))
        return out

    def render(self) -> str:
        return render_table(
            ("n_RW", "OSR [J]", "NVPG [J]", "NOF [J]"),
            self.rows(),
            title=f"E_cyc vs n_RW — {self.label}",
        )


@dataclass
class Fig7Result:
    sweeps: List[EcycSweep]

    def render(self) -> str:
        return "\n\n".join(s.render() for s in self.sweeps)


def _sweep(ctx: ExperimentContext, domain: PowerDomain, label: str,
           n_rw_values: Sequence[int], t_sl: float,
           t_sd: float) -> EcycSweep:
    model = ctx.energy_model(domain)
    n_rw = np.asarray(list(n_rw_values), dtype=int)
    e_cyc = {a.value: np.empty(len(n_rw)) for a in ARCHES}
    for i, n in enumerate(n_rw):
        for arch in ARCHES:
            spec = BenchmarkSpec(architecture=arch, n_rw=int(n),
                                 t_sl=t_sl, t_sd=t_sd)
            e_cyc[arch.value][i] = model.e_cyc(spec)
    return EcycSweep(label=label, n_rw=n_rw, e_cyc=e_cyc)


def run_fig7a(ctx: Optional[ExperimentContext] = None,
              domain: Optional[PowerDomain] = None,
              n_rw_values: Sequence[int] = DEFAULT_N_RW,
              t_sl_values: Sequence[float] = (0.0, 10e-9, 100e-9, 1e-6),
              workers: Optional[int] = None) -> Fig7Result:
    """Fig. 7(a): t_SD = 0, t_SL varied from 0 to 1 us.

    With ``workers``, the underlying cell characterisations are
    prewarmed through a fault-tolerant :mod:`repro.exec` campaign; the
    figure assembly stays serial, so the numbers are identical either
    way.
    """
    ctx = ctx or ExperimentContext()
    domain = domain or PowerDomain()
    if workers is not None:
        ctx.prewarm([(domain, None, None)], workers=workers, name="fig7a")
    sweeps = [
        _sweep(ctx, domain, f"t_SL = {t_sl * 1e9:g} ns, t_SD = 0",
               n_rw_values, t_sl, 0.0)
        for t_sl in t_sl_values
    ]
    return Fig7Result(sweeps=sweeps)


def run_fig7b(ctx: Optional[ExperimentContext] = None,
              n_values: Sequence[int] = (32, 64, 128, 256, 512, 1024, 2048),
              word_bits: int = 32,
              n_rw_values: Sequence[int] = DEFAULT_N_RW,
              t_sl: float = 100e-9,
              workers: Optional[int] = None) -> Fig7Result:
    """Fig. 7(b): M = 32, N varied 32..2048 (128 B .. 8 kB domains).

    The seven domain depths are independent characterisation points —
    the sweep that benefits most from a parallel ``workers`` campaign.
    """
    ctx = ctx or ExperimentContext()
    domains = [PowerDomain(n_wordlines=int(n), word_bits=word_bits)
               for n in n_values]
    if workers is not None:
        ctx.prewarm([(d, None, None) for d in domains], workers=workers,
                    name="fig7b")
    sweeps = []
    for n, domain in zip(n_values, domains):
        label = (
            f"N = {n} ({domain.size_bytes:.0f} B), "
            f"t_SL = {t_sl * 1e9:g} ns, t_SD = 0"
        )
        sweeps.append(_sweep(ctx, domain, label, n_rw_values, t_sl, 0.0))
    return Fig7Result(sweeps=sweeps)


def run_fig7c(ctx: Optional[ExperimentContext] = None,
              domain: Optional[PowerDomain] = None,
              n_rw_values: Sequence[int] = DEFAULT_N_RW,
              t_sd_values: Sequence[float] = (10e-6, 100e-6, 1e-3, 10e-3),
              t_sl: float = 100e-9,
              workers: Optional[int] = None) -> Fig7Result:
    """Fig. 7(c): t_SD varied from 10 us to 10 ms."""
    ctx = ctx or ExperimentContext()
    domain = domain or PowerDomain()
    if workers is not None:
        ctx.prewarm([(domain, None, None)], workers=workers, name="fig7c")
    sweeps = [
        _sweep(ctx, domain,
               f"t_SD = {t_sd * 1e6:g} us, t_SL = {t_sl * 1e9:g} ns",
               n_rw_values, t_sl, t_sd)
        for t_sd in t_sd_values
    ]
    return Fig7Result(sweeps=sweeps)
