"""Operating modes and bias conditions (paper Table I and Section III).

Every mode of the NV-SRAM cell maps to a set of DC levels on the control
lines of the single-cell testbench:

========== ======= ====== ====== ====== =====================================
Mode        PG gate  WL     SR     CTRL   Notes
========== ======= ====== ====== ====== =====================================
NORMAL      0        pulse  0      0.07   V_CTRL = 0.07 V minimises leakage
SLEEP       0*       0      0      0.04   rail lowered to 0.7 V (retention)
STORE_H     0        0      0.65   0      step 1: H-level node -> MTJ (CIMS)
STORE_L     0        0      0.65   0.5    step 2: CTRL drives the L-side MTJ
SHUTDOWN    1.0      0      0      0      super cutoff (V_PG = 1.0 V) [20]
RESTORE     0        0      0.65   0      VVDD pull-up regenerates the data
========== ======= ====== ====== ====== =====================================

(* sleep is realised by lowering the rail itself to 0.7 V with the switch
on, which is electrically equivalent to a regulated retention rail.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict

from ..errors import SequenceError


class Mode(enum.Enum):
    """Cell operating modes appearing in the benchmark sequences."""

    READ = "read"
    WRITE = "write"
    STANDBY = "standby"        # powered, idle, normal-mode biases
    SLEEP = "sleep"            # low-voltage retention (VVDD = 0.7 V)
    STORE_H = "store_h"        # store step 1 (H-level node)
    STORE_L = "store_l"        # store step 2 (L-level node)
    SHUTDOWN = "shutdown"      # super-cutoff power-off
    RESTORE = "restore"        # wake-up / nonvolatile recall


@dataclass(frozen=True)
class OperatingConditions:
    """All voltages, timings and margins of Table I in one place.

    The defaults are the paper's base configuration (300 MHz read/write,
    Jc = 5e6 A/cm^2 MTJs); Fig. 9(b) uses :meth:`fast_variant`.
    """

    vdd: float = 0.9
    #: SR-line voltage activating the PS-FinFETs (store/restore).
    v_sr: float = 0.65
    #: CTRL-line voltage during the L-store step.
    v_ctrl_store: float = 0.5
    #: CTRL-line bias minimising leakage in the normal operation mode.
    v_ctrl_normal: float = 0.07
    #: CTRL-line bias during the sleep (retention) mode.
    v_ctrl_sleep: float = 0.04
    #: Retention rail voltage during sleep.
    v_sleep_rail: float = 0.7
    #: Power-switch gate voltage for super-cutoff shutdown [20].
    v_pg_super: float = 1.0
    #: Normal-mode read/write frequency.
    frequency: float = 300e6
    #: Duration of each of the two store steps (H-store, L-store).
    t_store_step: float = 10e-9
    #: Required store-current margin over the MTJ critical current.
    store_margin: float = 1.5
    #: Wake-up (restore) window allotted before normal operation resumes.
    t_restore: float = 2e-9
    #: Fin number of the power switch per cell (Fig. 4 -> 7).
    nfsw: int = 7
    #: Word-line underdrive (volts below VDD) applied during reads — the
    #: bias-assist knob the paper names for stabilising the aggressive
    #: (1,1) fin design.  0 by default ("any bias assist technique ...
    #: is not employed for simplicity").
    wl_underdrive: float = 0.0
    #: Reads per write in one benchmark pass (paper mainly uses 1).
    read_write_ratio: float = 1.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise SequenceError("frequency must be positive")
        if self.t_store_step <= 0 or self.t_restore <= 0:
            raise SequenceError("store/restore durations must be positive")
        if not (0 < self.v_sleep_rail <= self.vdd):
            raise SequenceError("sleep rail must be in (0, vdd]")
        if self.read_write_ratio <= 0:
            raise SequenceError("read_write_ratio must be positive")
        if not (0.0 <= self.wl_underdrive < self.vdd):
            raise SequenceError("wl_underdrive must be in [0, vdd)")

    @property
    def t_cycle(self) -> float:
        """Read/write cycle time (seconds)."""
        return 1.0 / self.frequency

    @property
    def v_wl_read(self) -> float:
        """Word-line high level during reads (underdrive applied)."""
        return self.vdd - self.wl_underdrive

    @property
    def t_store(self) -> float:
        """Total two-step store duration per word line."""
        return 2.0 * self.t_store_step

    def fast_variant(self) -> "OperatingConditions":
        """The Fig. 9(b) configuration: 1 GHz operation."""
        return replace(self, frequency=1e9)

    def with_(self, **kwargs) -> "OperatingConditions":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class LineLevels:
    """DC bias level of every control line of the cell testbench (volts)."""

    rail: float       # main supply rail
    pg: float         # power-switch gate
    wl: float         # word line
    sr: float         # SR line (PS-FinFET gates)
    ctrl: float       # CTRL line (MTJ far ends)
    bl: float         # bitline (when source-driven)
    blb: float        # complementary bitline
    prech: float      # precharge enable (testbench switch control)
    write_en: float   # write-driver enable (testbench switch control)

    def as_dict(self) -> Dict[str, float]:
        return {
            "rail": self.rail,
            "pg": self.pg,
            "wl": self.wl,
            "sr": self.sr,
            "ctrl": self.ctrl,
            "bl": self.bl,
            "blb": self.blb,
            "prech": self.prech,
            "write_en": self.write_en,
        }


def bias_for_mode(mode: Mode, cond: OperatingConditions,
                  volatile: bool = False) -> LineLevels:
    """The quiescent line levels of ``mode``.

    READ/WRITE segments additionally pulse WL/precharge/write-enable on
    top of these quiescent levels — that activity is generated by
    :mod:`repro.pg.scheduler`, not encoded here.

    Parameters
    ----------
    volatile:
        True for the plain 6T cell: the SR/CTRL lines are absent, so their
        levels are forced to 0 in every mode.
    """
    vdd = cond.vdd
    base = dict(
        rail=vdd, pg=0.0, wl=0.0,
        sr=0.0, ctrl=cond.v_ctrl_normal,
        bl=vdd, blb=vdd, prech=vdd, write_en=0.0,
    )
    if mode in (Mode.READ, Mode.WRITE, Mode.STANDBY):
        pass  # normal-mode quiescent levels
    elif mode is Mode.SLEEP:
        base.update(rail=cond.v_sleep_rail, ctrl=cond.v_ctrl_sleep,
                    bl=cond.v_sleep_rail, blb=cond.v_sleep_rail,
                    prech=cond.v_sleep_rail)
    elif mode is Mode.STORE_H:
        base.update(sr=cond.v_sr, ctrl=0.0)
    elif mode is Mode.STORE_L:
        base.update(sr=cond.v_sr, ctrl=cond.v_ctrl_store)
    elif mode is Mode.SHUTDOWN:
        base.update(pg=cond.v_pg_super, ctrl=0.0, bl=0.0, blb=0.0, prech=0.0)
    elif mode is Mode.RESTORE:
        base.update(sr=cond.v_sr, ctrl=0.0, bl=0.0, blb=0.0, prech=0.0)
    else:  # pragma: no cover - exhaustive enum
        raise SequenceError(f"unknown mode {mode}")
    if volatile:
        base.update(sr=0.0, ctrl=0.0)
    return LineLevels(**base)
