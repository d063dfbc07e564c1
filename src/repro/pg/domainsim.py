"""Discrete-event simulation of a whole power domain.

:class:`repro.pg.energy.CellEnergyModel` composes E_cyc with closed-form
arithmetic; this module computes the *same* quantity by brute force — a
discrete-event simulation that walks every row of the N x M domain
through the benchmark sequence, advancing a per-row state machine and
integrating each row's power over every interval.  The two must agree,
and the test suite asserts that they do; beyond validation, the event
timeline is useful in its own right for visualising domain schedules and
for experimenting with alternative controllers (e.g. parallel stores,
partial-domain wake-up) that have no closed form.

Row states and their per-cell power/energy sources:

=============  =====================================================
state           cost
=============  =====================================================
ACTIVE_IDLE     ``p_normal`` x duration (powered, not accessed)
ACCESS_READ     ``e_read`` per event (includes the cycle's static)
ACCESS_WRITE    ``e_write`` per event
SLEEP           ``p_sleep`` x duration
STORING         ``e_store`` per event (its 2 x 10 ns window)
OFF             ``p_shutdown`` x duration
RESTORING       ``e_restore`` per event
=============  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import SequenceError
from ..cells.array import PowerDomain
from ..characterize.data import CellCharacterization
from .modes import OperatingConditions
from .sequences import Architecture, BenchmarkSpec


class RowState(enum.Enum):
    """Power state of one word line's cells."""

    ACTIVE_IDLE = "active_idle"
    SLEEP = "sleep"
    OFF = "off"


@dataclass(frozen=True)
class DomainEvent:
    """One logged domain action (for timelines and debugging)."""

    time: float
    row: int            # -1 = whole domain
    action: str
    duration: float = 0.0


@dataclass
class DomainSimResult:
    """Outcome of one simulated benchmark cycle."""

    total_energy: float            # joules, whole domain
    duration: float                # seconds, whole benchmark cycle
    num_cells: int
    breakdown: Dict[str, float] = field(default_factory=dict)
    events: List[DomainEvent] = field(default_factory=list)

    @property
    def energy_per_cell(self) -> float:
        return self.total_energy / self.num_cells

    def breakdown_per_cell(self) -> Dict[str, float]:
        return {k: v / self.num_cells for k, v in self.breakdown.items()}


class PowerDomainSimulator:
    """Walks an N-row domain through a Fig. 5 benchmark, event by event.

    Parameters
    ----------
    nv, volatile:
        Cell characterisations (the same inputs the analytic model uses).
    cond, domain:
        Operating conditions and domain geometry.
    log_events:
        Keep the full event list (O(n_rw x N) entries) — disable for
        large sweeps.
    """

    def __init__(self, nv: CellCharacterization,
                 volatile: CellCharacterization,
                 cond: OperatingConditions,
                 domain: PowerDomain,
                 log_events: bool = True):
        if nv.kind != "nv" or volatile.kind != "6t":
            raise SequenceError("characterisations passed in wrong order")
        self.nv = nv
        self.volatile = volatile
        self.cond = cond
        self.domain = domain
        self.log_events = log_events

    # -- core engine ------------------------------------------------------
    def run(self, spec: BenchmarkSpec) -> DomainSimResult:
        """Simulate one benchmark cycle of ``spec`` over the domain."""
        arch = spec.architecture
        char = self.volatile if arch is Architecture.OSR else self.nv
        n = self.domain.n_wordlines
        cells_per_row = self.domain.word_bits
        rho = self.cond.read_write_ratio
        if rho != int(rho):
            raise SequenceError(
                "the discrete-event simulator needs an integer "
                "read:write ratio"
            )
        reads_per_pass = int(rho)

        self._time = 0.0
        self._energy = 0.0
        self._breakdown: Dict[str, float] = {}
        self._events: List[DomainEvent] = []
        self._char = char
        self._cells_per_row = cells_per_row

        idle_state = self._idle_state(arch)
        row_power = {
            RowState.ACTIVE_IDLE: char.p_normal,
            RowState.SLEEP: char.p_sleep,
            RowState.OFF: char.p_shutdown,
        }

        def dwell_all(duration: float, state: RowState, label: str):
            """All N rows sit in ``state`` for ``duration``."""
            if duration <= 0:
                return
            power = row_power[state] * cells_per_row * n
            self._account(label, power * duration)
            self._log(-1, label, duration)
            self._time += duration

        def access_slot(row: int, kind: str, t_slot: float,
                        extras: Tuple[Tuple[str, float], ...]):
            """Row ``row`` performs an access; the others idle."""
            for label, energy in extras:
                self._account(label, energy * cells_per_row)
            idle_power = row_power[idle_state] * cells_per_row * (n - 1)
            self._account(f"idle_{idle_state.value}", idle_power * t_slot)
            self._log(row, kind, t_slot)
            self._time += t_slot

        t_cyc = self.cond.t_cycle

        for _ in range(spec.n_rw):
            # Access phase: every row read rho times, then written once,
            # in series.  (Energy is order-independent; this ordering
            # matches the paper's "all the bit cells are read and written
            # in series".)
            for row in range(n):
                for _ in range(reads_per_pass):
                    extras = [("read", char.e_read)]
                    slot = t_cyc
                    if arch is Architecture.NOF:
                        extras.append(("restore", char.e_restore))
                        slot += char.t_restore
                    access_slot(row, "read", slot, tuple(extras))
                extras = [("write", char.e_write)]
                slot = t_cyc
                if arch is Architecture.NOF:
                    extras.append(("restore", char.e_restore))
                    slot += char.t_restore
                    if not spec.store_free:
                        extras.append(("store", char.e_store))
                        slot += char.t_store
                access_slot(row, "write", slot, tuple(extras))
            # Short standby between passes.
            if arch is Architecture.NOF:
                dwell_all(spec.t_sl, RowState.OFF, "standby_off")
            else:
                dwell_all(spec.t_sl, RowState.SLEEP, "standby_sleep")

        # Long inactive period (with NVPG's store/restore bracket).
        if arch is Architecture.OSR:
            dwell_all(spec.t_sd, RowState.SLEEP, "long_sleep")
        else:
            if arch is Architecture.NVPG and not spec.store_free:
                # Rows store in series; the waiting rows stay powered.
                for row in range(n):
                    self._account("store",
                                  char.e_store * cells_per_row)
                    waiting = char.p_normal * cells_per_row * (n - 1)
                    self._account("idle_active_idle",
                                  waiting * char.t_store)
                    self._log(row, "store", char.t_store)
                    self._time += char.t_store
            dwell_all(spec.t_sd, RowState.OFF, "long_shutdown")
            # Whole-domain wake-up (rows restore in parallel).
            self._account("restore",
                          char.e_restore * cells_per_row * n)
            self._log(-1, "restore", char.t_restore)
            self._time += char.t_restore

        return DomainSimResult(
            total_energy=self._energy,
            duration=self._time,
            num_cells=self.domain.num_cells,
            breakdown=dict(self._breakdown),
            events=self._events,
        )

    # -- helpers ----------------------------------------------------------
    def _idle_state(self, arch: Architecture) -> RowState:
        """State of the N-1 rows while one row is accessed."""
        if arch is Architecture.NOF:
            return RowState.OFF     # fine-grained normally-off gating
        return RowState.ACTIVE_IDLE

    def _account(self, label: str, energy: float) -> None:
        self._energy += energy
        self._breakdown[label] = self._breakdown.get(label, 0.0) + energy

    def _log(self, row: int, action: str, duration: float) -> None:
        if self.log_events:
            self._events.append(
                DomainEvent(self._time, row, action, duration)
            )
