"""Register-bank nonvolatile power gating (the NV-FF application).

The paper's NVPG architecture covers "caches, register files, and
registers"; arrays are handled by :class:`~repro.pg.energy.CellEnergyModel`
and this module covers the flip-flop side: a bank of B NV-FFs that clocks
while active, idles clock-gated, and — when an idle interval exceeds its
break-even time — stores all its bits to the MTJs in parallel and powers
off under super cutoff.

Unlike the SRAM domain there is no word-line serialisation: every FF has
its own PS-FinFET/MTJ branch, so the whole bank stores in one 2 x 10 ns
window and the BET is independent of the bank size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import math

from ..errors import SequenceError
from ..characterize.data import FlipFlopCharacterization


@dataclass
class RegisterBankModel:
    """Energy model of a bank of NV flip-flops.

    Parameters
    ----------
    ff:
        Characterised NV-FF.
    num_ffs:
        Bank width B (bits of architectural state).
    """

    ff: FlipFlopCharacterization
    num_ffs: int = 1024

    def __post_init__(self):
        if self.num_ffs < 1:
            raise SequenceError("num_ffs must be >= 1")

    # -- running ----------------------------------------------------------
    def active_power(self, activity: float = 0.5) -> float:
        """Bank power while clocking (watts).

        ``activity`` is the fraction of cycles on which a given bit
        toggles; clock/internal-node energy is paid every cycle.
        """
        e_cycle = self.ff.e_clock(activity)
        return self.num_ffs * (
            e_cycle * self.ff.clock_frequency
        )

    def idle_power(self) -> float:
        """Bank power while clock-gated but powered (watts)."""
        return self.num_ffs * self.ff.p_normal

    def shutdown_power(self) -> float:
        """Bank power while powered off under super cutoff (watts)."""
        return self.num_ffs * self.ff.p_shutdown

    # -- power gating -------------------------------------------------------
    @property
    def gating_overhead(self) -> float:
        """Energy to enter + leave a shutdown (whole bank, joules)."""
        return self.num_ffs * (self.ff.e_store + self.ff.e_restore)

    @property
    def gating_dead_time(self) -> float:
        """Time spent storing + restoring around a shutdown (seconds)."""
        return self.ff.t_store + self.ff.t_restore

    def break_even_time(self) -> float:
        """Idle duration at which gating costs as much as idling.

        Solves ``overhead + P_off * t = P_idle * t``; independent of the
        bank width because all FFs store in parallel.
        """
        saving = self.ff.p_normal - self.ff.p_shutdown
        if saving <= 0:
            return math.inf
        return (self.ff.e_store + self.ff.e_restore) / saving

    def idle_energy(self, duration: float, gate: bool) -> float:
        """Bank energy over one idle interval (joules).

        ``gate=True`` pays the store/restore overhead and the shutdown
        leakage; ``gate=False`` just idles.  Intervals shorter than the
        store+restore dead time cannot be gated and fall back to idling.
        """
        if duration < 0:
            raise SequenceError("duration must be >= 0")
        if not gate or duration < self.gating_dead_time:
            return self.idle_power() * duration
        off_time = duration - self.gating_dead_time
        return self.gating_overhead + self.shutdown_power() * off_time

    def policy_energy(self, intervals: Iterable[float],
                      threshold: Optional[float] = None) -> float:
        """Total idle energy under a threshold-gating policy.

        Gates every interval longer than ``threshold`` (default: the
        break-even time — the optimal static policy).
        """
        threshold = self.break_even_time() if threshold is None else threshold
        return sum(
            self.idle_energy(t, gate=t > threshold) for t in intervals
        )

    def savings_vs_idle(self, intervals: Iterable[float]) -> float:
        """Fractional energy saved by BET gating vs never gating."""
        intervals = list(intervals)
        baseline = sum(self.idle_power() * t for t in intervals)
        if baseline <= 0:
            return 0.0
        return 1.0 - self.policy_energy(intervals) / baseline
