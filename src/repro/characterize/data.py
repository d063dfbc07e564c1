"""Characterisation result records (JSON-serialisable for caching)."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict

from ..errors import CharacterizationError


class _Record:
    """The JSON text form both result records share."""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls(**json.loads(text))


@dataclass
class CellCharacterization(_Record):
    """Per-mode energies, static powers and delays of one cell flavour.

    All energies are joules *per cell*; powers are watts per cell.  The
    read/write energies are totals over the cell's own access cycle
    (including its quiescent power during that cycle); idle time is
    accounted separately via the static powers.

    Attributes
    ----------
    kind:
        ``"nv"`` (NV-SRAM cell) or ``"6t"`` (volatile baseline).
    n_wordlines:
        Domain depth the bitline capacitance was extracted for (the
        read/write energies depend on it).
    e_read / e_write:
        Energy of one read / one write cycle.
    p_normal:
        Static power in the normal operation mode (precharged bitlines,
        word line low; V_CTRL = 0.07 V for the NV cell).
    p_sleep:
        Static power in the sleep / low-voltage-retention mode
        (rail at 0.7 V; V_CTRL = 0.04 V for the NV cell).
    p_shutdown:
        Static power in the super-cutoff shutdown mode (NV cell; for the
        6T baseline this mode is unreachable and is set equal to sleep).
    p_shutdown_nominal:
        Shutdown static power with the ordinary V_PG = VDD gate drive
        (Fig. 6(c) contrast against super cutoff).
    e_store / t_store:
        Energy and duration of the full two-step store (H-store +
        L-store); zero for the 6T cell.
    e_store_h / e_store_l:
        Per-step breakdown of the store energy.
    e_restore / t_restore:
        Wake-up (recall) energy and allotted duration; zero for 6T.
    read_delay:
        Word-line assertion to 100 mV bitline differential.
    write_delay:
        Word-line assertion to storage-node crossover.
    store_current_h / store_current_l:
        Peak MTJ current during each store step (CIMS margin check).
    store_events / restore_ok:
        Functional checks: number of MTJ switching events seen during the
        store, and whether the restore recovered the stored data.
    """

    kind: str
    n_wordlines: int
    vdd: float
    frequency: float
    e_read: float = 0.0
    e_write: float = 0.0
    p_normal: float = 0.0
    p_sleep: float = 0.0
    p_shutdown: float = 0.0
    p_shutdown_nominal: float = 0.0
    e_store: float = 0.0
    e_store_h: float = 0.0
    e_store_l: float = 0.0
    t_store: float = 0.0
    e_restore: float = 0.0
    t_restore: float = 0.0
    read_delay: float = 0.0
    write_delay: float = 0.0
    store_current_h: float = 0.0
    store_current_l: float = 0.0
    store_events: int = 0
    restore_ok: bool = True
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("nv", "6t"):
            raise CharacterizationError(f"unknown cell kind: {self.kind}")

    @property
    def is_nonvolatile(self) -> bool:
        return self.kind == "nv"

    def validate(self) -> None:
        """Sanity-check physical consistency; raise on nonsense."""
        checks = [
            ("e_read", self.e_read >= 0.0),
            ("e_write", self.e_write >= 0.0),
            ("p_normal", self.p_normal > 0.0),
            ("p_sleep", self.p_sleep > 0.0),
            ("p_shutdown", self.p_shutdown >= 0.0),
            ("sleep<=normal", self.p_sleep <= self.p_normal * 1.5),
        ]
        if self.is_nonvolatile:
            checks += [
                ("e_store", self.e_store > 0.0),
                ("shutdown<sleep", self.p_shutdown < self.p_sleep),
                ("store switched both MTJs", self.store_events >= 2),
                ("restore recovered data", self.restore_ok),
            ]
        failed = [name for name, ok in checks if not ok]
        if failed:
            raise CharacterizationError(
                f"characterisation failed sanity checks: {failed}"
            )


@dataclass
class FlipFlopCharacterization(_Record):
    """Per-mode energies and delays of the NV-FF (joules / seconds).

    ``e_clock_toggle`` / ``e_clock_hold`` are per-clock-cycle energies
    with the data input toggling every cycle / held constant; real
    activity factors interpolate between them.
    """

    vdd: float
    clock_frequency: float
    e_clock_toggle: float = 0.0
    e_clock_hold: float = 0.0
    clk_to_q_delay: float = 0.0
    p_normal: float = 0.0
    p_shutdown: float = 0.0
    e_store: float = 0.0
    t_store: float = 0.0
    e_restore: float = 0.0
    t_restore: float = 0.0
    store_events: int = 0
    restore_ok: bool = True
    extras: Dict[str, float] = field(default_factory=dict)

    def e_clock(self, activity: float) -> float:
        """Per-cycle energy at a data activity factor in [0, 1]."""
        if not (0.0 <= activity <= 1.0):
            raise CharacterizationError("activity must be in [0, 1]")
        return (self.e_clock_hold
                + activity * (self.e_clock_toggle - self.e_clock_hold))

    def validate(self) -> None:
        checks = [
            ("e_clock_toggle", self.e_clock_toggle > 0),
            ("toggle >= hold", self.e_clock_toggle >= self.e_clock_hold),
            ("p_normal", self.p_normal > 0),
            ("shutdown < normal", self.p_shutdown < self.p_normal),
            ("e_store", self.e_store > 0),
            ("store switched both MTJs", self.store_events >= 2),
            ("restore recovered data", self.restore_ok),
            ("clk-q delay", 0 < self.clk_to_q_delay < 1.0 /
             self.clock_frequency),
        ]
        failed = [name for name, ok in checks if not ok]
        if failed:
            raise CharacterizationError(
                f"NV-FF characterisation failed sanity checks: {failed}"
            )
