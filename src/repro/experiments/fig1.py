"""Fig. 1 — time evolution of power dissipation: NVPG vs NOF.

The paper's Fig. 1 is a conceptual staircase; this experiment draws the
same picture from *simulated* numbers: the per-mode powers of the
characterised cell laid out along the Fig. 5 schedules, rendered as a
piecewise-constant power timeline (and an ASCII staircase for the
report).  NVPG shows long active plateaus with one store spike before a
deep shutdown; NOF shows an off-baseline punctuated by access+store
bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cells import PowerDomain
from ..pg.modes import Mode, OperatingConditions
from ..pg.sequences import Architecture, BenchmarkSpec, benchmark_sequence
from ..units import format_eng
from .context import ExperimentContext


@dataclass
class PowerTimeline:
    """A piecewise-constant power profile: level per schedule window."""

    architecture: Architecture
    times: np.ndarray       # window start times, plus the final end time
    levels: np.ndarray      # one power level per window (W per cell)
    labels: List[str]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def average_power(self) -> float:
        widths = np.diff(self.times)
        return float(np.sum(widths * self.levels) / self.duration)


@dataclass
class Fig1Result:
    timelines: List[PowerTimeline]

    def render(self, width: int = 68, height: int = 10) -> str:
        parts = []
        for tl in self.timelines:
            parts.append(
                f"Fig. 1 power timeline [{tl.architecture.value.upper()}]: "
                f"{format_eng(tl.duration, 's')} total, "
                f"avg {format_eng(tl.average_power(), 'W')} per cell"
            )
            parts.append(_ascii_staircase(tl, width, height))
        return "\n\n".join(parts)


def _mode_power(char, mode: Mode, cond: OperatingConditions) -> float:
    """Average per-cell power of one schedule window."""
    t_cyc = cond.t_cycle
    if mode is Mode.READ:
        return char.e_read / t_cyc
    if mode is Mode.WRITE:
        return char.e_write / t_cyc
    if mode is Mode.STANDBY:
        return char.p_normal
    if mode is Mode.SLEEP:
        return char.p_sleep
    if mode in (Mode.STORE_H, Mode.STORE_L):
        return char.e_store / max(char.t_store, 1e-12)
    if mode is Mode.SHUTDOWN:
        return char.p_shutdown
    if mode is Mode.RESTORE:
        return char.e_restore / max(char.t_restore, 1e-12)
    raise ValueError(f"unknown mode {mode}")


def run_fig1(ctx: Optional[ExperimentContext] = None,
             domain: Optional[PowerDomain] = None,
             n_rw: int = 3,
             t_sl: float = 30e-9,
             t_sd: float = 60e-9) -> Fig1Result:
    """Build the NVPG and NOF power timelines of Fig. 1."""
    ctx = ctx or ExperimentContext()
    domain = domain or PowerDomain()
    timelines = []
    for arch in (Architecture.NVPG, Architecture.NOF):
        char = ctx.characterization("nv", domain)
        spec = BenchmarkSpec(architecture=arch, n_rw=n_rw, t_sl=t_sl,
                             t_sd=t_sd)
        schedule = benchmark_sequence(spec, ctx.cond)
        windows = schedule.windows()
        times = np.array([w.t_start for w in windows]
                         + [windows[-1].t_end])
        levels = np.array([
            _mode_power(char, w.mode, ctx.cond) for w in windows
        ])
        timelines.append(PowerTimeline(
            architecture=arch,
            times=times,
            levels=levels,
            labels=[w.mode.value for w in windows],
        ))
    return Fig1Result(timelines=timelines)


def _ascii_staircase(tl: PowerTimeline, width: int, height: int) -> str:
    """Log-power staircase plot, one character column per time bin."""
    floor = max(tl.levels[tl.levels > 0].min() / 3, 1e-12)
    log_levels = np.log10(np.maximum(tl.levels, floor))
    lo, hi = np.log10(floor), log_levels.max()
    span = max(hi - lo, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    for col in range(width):
        t = (col + 0.5) / width * tl.duration
        idx = int(np.searchsorted(tl.times, t, side="right") - 1)
        idx = min(max(idx, 0), len(tl.levels) - 1)
        frac = (log_levels[idx] - lo) / span
        row_top = int(round((1.0 - frac) * (height - 1)))
        grid[row_top][col] = "_" if frac < 1.0 else "#"
        for row in range(row_top + 1, height):
            grid[row][col] = "|" if grid[row][col] == " " else grid[row][col]
    axis = (f"0 {'-' * (width - 14)} "
            f"{format_eng(tl.duration, 's')}")
    return "\n".join("".join(row) for row in grid) + "\n" + axis
