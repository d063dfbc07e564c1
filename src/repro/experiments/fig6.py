"""Fig. 6 — time-resolved power traces and per-mode static power.

* (a)/(b): a full benchmark-sequence transient of the single cell for
  each architecture (OSR on the 6T cell; NVPG/NOF on the NV-SRAM cell),
  with instantaneous total delivered power sampled over time.  The NVPG
  trace shows read/write activity identical to the 6T cell, a 2 x 10 ns
  store burst and a shutdown plateau; the NOF trace shows the per-cycle
  wake/store overhead that degrades its effective cycle time.
* (c): the static-power comparison of the 6T and NV cells in the normal,
  sleep and shutdown modes (nominal gate drive vs super cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cells import PowerDomain
from ..pg.sequences import Architecture, BenchmarkSpec, benchmark_sequence
from ..characterize.testbench import SUPPLY_SOURCES, build_cell_testbench
from .context import ExperimentContext
from .report import render_table
from ..units import format_eng


@dataclass
class PowerTrace:
    """One architecture's power-vs-time series."""

    architecture: Architecture
    time: np.ndarray
    power: np.ndarray
    total_energy: float
    events: List[Tuple[float, str, str]]

    def peak_power(self) -> float:
        return float(np.max(self.power))


@dataclass
class Fig6Result:
    traces: Dict[str, PowerTrace]
    static_rows: List[Tuple[str, str, str]]
    effective_cycle: Dict[str, float]

    def render(self) -> str:
        parts = []
        for name, trace in self.traces.items():
            parts.append(
                f"Fig. 6(a) trace [{name}]: "
                f"{len(trace.time)} samples over "
                f"{format_eng(float(trace.time[-1]), 's')}, "
                f"E_total = {format_eng(trace.total_energy, 'J')}, "
                f"peak P = {format_eng(trace.peak_power(), 'W')}, "
                f"MTJ events = {len(trace.events)}"
            )
        parts.append(render_table(
            ("mode", "6T cell", "NV-SRAM cell"),
            self.static_rows,
            title="Fig. 6(c): static power per mode",
        ))
        cyc = self.effective_cycle
        parts.append(
            "Effective read/write cycle time: "
            + ", ".join(
                f"{k} = {format_eng(v, 's')}" for k, v in cyc.items()
            )
            + "  (NOF pays per-cycle wake-up + write-back)"
        )
        return "\n\n".join(parts)


def run_fig6(ctx: Optional[ExperimentContext] = None,
             domain: Optional[PowerDomain] = None,
             n_rw: int = 2,
             t_sl: float = 20e-9,
             t_sd: float = 40e-9,
             max_samples: int = 2000) -> Fig6Result:
    """Regenerate Fig. 6: run the three benchmark transients and collect
    the static-power table."""
    ctx = ctx or ExperimentContext()
    domain = domain or PowerDomain()
    cond = ctx.cond

    traces: Dict[str, PowerTrace] = {}
    for arch in (Architecture.OSR, Architecture.NVPG, Architecture.NOF):
        spec = BenchmarkSpec(architecture=arch, n_rw=n_rw, t_sl=t_sl,
                             t_sd=t_sd)
        schedule = benchmark_sequence(spec, cond)
        kind = "6t" if arch.is_volatile else "nv"
        tb = build_cell_testbench(kind, cond, domain, nfet=ctx.nfet,
                                  pfet=ctx.pfet, mtj_params=ctx.mtj_params)
        result = tb.run(schedule, mtj_data=False,
                        dt_max=schedule.total_duration / 50.0)
        power = result.delivered_power(SUPPLY_SOURCES)
        time, power = _downsample(result.time, power, max_samples)
        traces[arch.value] = PowerTrace(
            architecture=arch,
            time=time,
            power=power,
            total_energy=result.energy(SUPPLY_SOURCES),
            events=result.events,
        )

    # panel (c): static powers from the characterisations.
    nv = ctx.characterization("nv", domain)
    vt = ctx.characterization("6t", domain)
    static_rows = [
        ("normal", format_eng(vt.p_normal, "W"), format_eng(nv.p_normal, "W")),
        ("sleep (0.7 V)", format_eng(vt.p_sleep, "W"),
         format_eng(nv.p_sleep, "W")),
        ("shutdown (V_PG = VDD)", "n/a",
         format_eng(nv.p_shutdown_nominal, "W")),
        ("shutdown (super cutoff)", "n/a", format_eng(nv.p_shutdown, "W")),
    ]

    model = ctx.energy_model(domain)
    effective_cycle = {
        "6T/OSR": cond.t_cycle,
        "NVPG": model.effective_cycle_time(Architecture.NVPG),
        "NOF": model.effective_cycle_time(Architecture.NOF),
    }
    return Fig6Result(traces=traces, static_rows=static_rows,
                      effective_cycle=effective_cycle)


def _downsample(time: np.ndarray, values: np.ndarray,
                max_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    if len(time) <= max_samples:
        return time, values
    idx = np.linspace(0, len(time) - 1, max_samples).astype(int)
    return time[idx], values[idx]
