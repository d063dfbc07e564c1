"""Mode-timeline to bias-waveform compiler.

A :class:`Schedule` is an ordered list of :class:`ScheduleStep` (mode +
duration + optional write data).  :meth:`Schedule.line_waveforms` compiles
it into one piecewise-linear waveform per testbench control line — the
quiescent levels come from :func:`repro.pg.modes.bias_for_mode` and the
intra-cycle activity of READ/WRITE steps (precharge, word-line and
write-driver pulses) is generated here.

The resulting waveforms drive the single-cell transient testbenches used
for characterisation and for the Fig. 6 power traces; the per-step windows
(:meth:`Schedule.windows`) are what the energy bookkeeping integrates
over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SequenceError
from ..circuit.waveforms import PiecewiseLinear, Waveform
from .modes import LineLevels, Mode, OperatingConditions, bias_for_mode

#: Fraction of a read cycle spent precharging before word-line assertion.
_READ_PRECHARGE_FRACTION = 0.40
#: Word-line assertion window inside a read and a write cycle (fractions
#: of the cycle).
_WL_WINDOW = {Mode.READ: (0.45, 0.95), Mode.WRITE: (0.25, 0.90)}
#: Write-driver window inside a write cycle.
_WRITE_DRIVER_WINDOW = (0.10, 0.95)


@dataclass(frozen=True)
class ScheduleStep:
    """One mode segment of a schedule."""

    mode: Mode
    duration: float
    #: Data value for WRITE steps (True = drive Q high).
    data: Optional[bool] = None

    def __post_init__(self):
        if self.duration < 0:
            raise SequenceError("step duration must be >= 0")
        if self.mode is Mode.WRITE and self.data is None:
            raise SequenceError("WRITE steps need a data value")


@dataclass(frozen=True)
class PhaseWindow:
    """Time window of one schedule step in the compiled timeline."""

    index: int
    mode: Mode
    t_start: float
    t_end: float
    data: Optional[bool] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def wl_on(self) -> float:
        """Instant the word line starts rising in this READ or WRITE
        window (the reference of the read and write delays)."""
        return self.t_start + _WL_WINDOW[self.mode][0] * self.duration


class _PwlBuilder:
    """Accumulates (time, level) corners with finite-slope transitions."""

    def __init__(self, level0: float):
        self.points: List[Tuple[float, float]] = [(0.0, level0)]

    def set(self, t: float, level: float, ramp: float) -> None:
        """Ramp to ``level`` starting at ``t`` over ``ramp`` seconds."""
        last_t, last_level = self.points[-1]
        if level == last_level:
            return
        if t <= last_t:
            t = last_t + ramp * 1e-3
        self.points.append((t, last_level))
        self.points.append((t + ramp, level))

    def waveform(self) -> PiecewiseLinear:
        return PiecewiseLinear(self.points)


class Schedule:
    """An ordered mode timeline for one cell testbench."""

    #: Control lines every compiled schedule provides.
    LINES = ("rail", "pg", "wl", "sr", "ctrl", "bl", "blb", "prech", "write_en")

    def __init__(self, steps: List[ScheduleStep], cond: OperatingConditions,
                 volatile: bool = False):
        if not steps:
            raise SequenceError("schedule needs at least one step")
        self.steps = list(steps)
        self.cond = cond
        self.volatile = volatile

    @property
    def total_duration(self) -> float:
        return sum(step.duration for step in self.steps)

    def windows(self) -> List[PhaseWindow]:
        """Per-step time windows in the compiled timeline."""
        result = []
        t = 0.0
        for i, step in enumerate(self.steps):
            result.append(PhaseWindow(i, step.mode, t, t + step.duration, step.data))
            t += step.duration
        return result

    def windows_of(self, mode: Mode) -> List[PhaseWindow]:
        return [w for w in self.windows() if w.mode is mode]

    # -- compilation ---------------------------------------------------------
    def line_waveforms(self) -> Dict[str, Waveform]:
        """Compile the timeline into one waveform per control line."""
        cond = self.cond
        t_edge = min(100e-12, cond.t_cycle / 20.0)
        first_bias = bias_for_mode(self.steps[0].mode, cond, self.volatile)
        builders = {
            line: _PwlBuilder(getattr(first_bias, line)) for line in self.LINES
        }

        t = 0.0
        for step in self.steps:
            bias = bias_for_mode(step.mode, cond, self.volatile)
            for line in self.LINES:
                builders[line].set(t, getattr(bias, line), t_edge)
            if step.mode is Mode.READ:
                self._emit_read(builders, t, step.duration, bias, t_edge)
            elif step.mode is Mode.WRITE:
                self._emit_write(builders, t, step.duration, bias, t_edge,
                                 bool(step.data))
            t += step.duration

        # Park every line at its final quiescent level.
        final_bias = bias_for_mode(self.steps[-1].mode, cond, self.volatile)
        for line in self.LINES:
            builders[line].set(t, getattr(final_bias, line), t_edge)
        return {line: b.waveform() for line, b in builders.items()}

    def _emit_read(self, builders, t0: float, duration: float,
                   bias: LineLevels, t_edge: float) -> None:
        """Precharge-then-sense read activity."""
        vdd = self.cond.vdd
        t_pre_end = t0 + _READ_PRECHARGE_FRACTION * duration
        wl_on = t0 + _WL_WINDOW[Mode.READ][0] * duration
        wl_off = t0 + _WL_WINDOW[Mode.READ][1] * duration
        builders["prech"].set(t0, vdd, t_edge)
        builders["prech"].set(t_pre_end, 0.0, t_edge)
        # Reads may use word-line underdrive (bias assist) for stability.
        builders["wl"].set(wl_on, self.cond.v_wl_read, t_edge)
        builders["wl"].set(wl_off, 0.0, t_edge)
        # Re-enable precharge for the tail so the next cycle starts charged.
        builders["prech"].set(wl_off + 2 * t_edge, vdd, t_edge)

    def _emit_write(self, builders, t0: float, duration: float,
                    bias: LineLevels, t_edge: float, data: bool) -> None:
        """Write-driver + word-line activity."""
        vdd = self.cond.vdd
        drv_on = t0 + _WRITE_DRIVER_WINDOW[0] * duration
        drv_off = t0 + _WRITE_DRIVER_WINDOW[1] * duration
        wl_on = t0 + _WL_WINDOW[Mode.WRITE][0] * duration
        wl_off = t0 + _WL_WINDOW[Mode.WRITE][1] * duration
        bl_level = vdd if data else 0.0
        blb_level = 0.0 if data else vdd
        builders["prech"].set(t0, 0.0, t_edge)
        builders["bl"].set(drv_on, bl_level, t_edge)
        builders["blb"].set(drv_on, blb_level, t_edge)
        builders["write_en"].set(drv_on, vdd, t_edge)
        builders["wl"].set(wl_on, vdd, t_edge)
        builders["wl"].set(wl_off, 0.0, t_edge)
        builders["write_en"].set(drv_off, 0.0, t_edge)
        builders["bl"].set(drv_off + 2 * t_edge, vdd, t_edge)
        builders["blb"].set(drv_off + 2 * t_edge, vdd, t_edge)
        builders["prech"].set(drv_off + 4 * t_edge, vdd, t_edge)

    def __repr__(self) -> str:
        return (
            f"<Schedule {len(self.steps)} steps, "
            f"T={self.total_duration:g}s, volatile={self.volatile}>"
        )
