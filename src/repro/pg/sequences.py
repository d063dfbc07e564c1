"""Benchmark sequences of the paper's Fig. 5.

Three architectures share one structure — ``n_RW`` repetitions of an
access pass followed by a long inactive period of duration ``t_SD`` — and
differ in how standby time is spent:

* **OSR** (Fig. 5(a), volatile 6T): each pass is read + write + short
  *sleep* ``t_SL``; the long period is spent in *sleep* too (the volatile
  cell cannot power off without losing data).
* **NVPG** (Fig. 5(b)): passes are identical to OSR (MTJs disconnected);
  after the last pass the cell *stores* to the MTJs (two steps), shuts
  down for ``t_SD`` under super cutoff, and *restores* on wake-up.
  With ``store_free`` the store is skipped (the MTJs already hold the
  data needed after wake-up — the paper's "store-free shutdown" [8]).
* **NOF** (Fig. 5(c)): the MTJs are engaged during normal operation, so
  each pass is wake-up (restore) + read + write + per-cycle store
  (write-back), after which the cell immediately shuts down for ``t_SL``
  (a short *shutdown* replaces the sleep); the long period is a shutdown.

These schedules describe a single cell's view; array-level serialisation
(N word lines stored in series etc.) is applied by
:class:`repro.pg.energy.CellEnergyModel`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from ..errors import SequenceError
from .modes import Mode, OperatingConditions
from .scheduler import Schedule, ScheduleStep


class Architecture(enum.Enum):
    """The three compared architectures."""

    OSR = "osr"      # ordinary (volatile) SRAM
    NVPG = "nvpg"    # nonvolatile power-gating
    NOF = "nof"      # normally-off

    @property
    def is_volatile(self) -> bool:
        return self is Architecture.OSR


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parameters of one benchmark sequence instance.

    Attributes
    ----------
    architecture:
        OSR, NVPG or NOF.
    n_rw:
        Number of read/write passes per benchmark cycle.
    t_sl:
        Short standby between passes: sleep (OSR/NVPG) or short shutdown
        (NOF), seconds.
    t_sd:
        Long inactive period: sleep for OSR, shutdown for NVPG/NOF.
    store_free:
        Skip the store before the long shutdown (NVPG and NOF).
    initial_data:
        Data held at the start; writes alternate from there.
    """

    architecture: Architecture
    n_rw: int = 1
    t_sl: float = 0.0
    t_sd: float = 0.0
    store_free: bool = False
    initial_data: bool = True

    def __post_init__(self):
        if self.n_rw < 1:
            raise SequenceError("n_rw must be >= 1")
        if self.t_sl < 0 or self.t_sd < 0:
            raise SequenceError("t_sl and t_sd must be >= 0")


def benchmark_sequence(spec: BenchmarkSpec,
                       cond: OperatingConditions) -> Schedule:
    """Build the single-cell :class:`~repro.pg.scheduler.Schedule` of Fig. 5.

    Zero-duration standby segments are elided so the compiled waveforms
    have no degenerate corners.
    """
    arch = spec.architecture
    t_cyc = cond.t_cycle
    steps: List[ScheduleStep] = []
    data = spec.initial_data

    def standby(duration: float, mode: Mode):
        if duration > 0:
            steps.append(ScheduleStep(mode, duration))

    for _ in range(spec.n_rw):
        if arch is Architecture.NOF:
            steps.append(ScheduleStep(Mode.RESTORE, cond.t_restore))
        steps.append(ScheduleStep(Mode.READ, t_cyc))
        data = not data
        steps.append(ScheduleStep(Mode.WRITE, t_cyc, data=data))
        if arch is Architecture.NOF:
            if not spec.store_free:
                steps.append(ScheduleStep(Mode.STORE_H, cond.t_store_step))
                steps.append(ScheduleStep(Mode.STORE_L, cond.t_store_step))
            standby(spec.t_sl, Mode.SHUTDOWN)
        else:
            standby(spec.t_sl, Mode.SLEEP)

    if arch is Architecture.OSR:
        standby(spec.t_sd, Mode.SLEEP)
    elif arch is Architecture.NVPG:
        if not spec.store_free:
            steps.append(ScheduleStep(Mode.STORE_H, cond.t_store_step))
            steps.append(ScheduleStep(Mode.STORE_L, cond.t_store_step))
        standby(spec.t_sd, Mode.SHUTDOWN)
        steps.append(ScheduleStep(Mode.RESTORE, cond.t_restore))
    else:  # NOF: already stored every cycle; just stay off, then wake.
        standby(spec.t_sd, Mode.SHUTDOWN)
        steps.append(ScheduleStep(Mode.RESTORE, cond.t_restore))

    return Schedule(steps, cond, volatile=arch.is_volatile)


def describe_sequence(spec: BenchmarkSpec, cond: OperatingConditions) -> str:
    """Human-readable timeline (the textual equivalent of Fig. 5)."""
    schedule = benchmark_sequence(spec, cond)
    lines = [
        f"{spec.architecture.value.upper()} benchmark sequence "
        f"(n_RW={spec.n_rw}, t_SL={spec.t_sl:g}s, t_SD={spec.t_sd:g}s)"
    ]
    for window in schedule.windows():
        label = window.mode.value
        if window.data is not None:
            label += f"[{'1' if window.data else '0'}]"
        lines.append(
            f"  {window.t_start * 1e9:10.2f} ns  +{window.duration * 1e9:10.3f} ns  {label}"
        )
    return "\n".join(lines)
