"""Per-cell E_cyc composition (paper Section IV, Figs. 7-8).

The paper post-processes its HSPICE runs into **E_cyc**: the energy per
cell over one benchmark cycle (n_cyc = 1) of the Fig. 5 sequences.  This
module performs the same composition from characterised per-mode numbers:

* the cell's own read/write/store/restore energies come from transient
  characterisation (:mod:`repro.characterize.runner`);
* idle intervals contribute static power x duration;
* array organisation enters through the depth N of
  :class:`repro.cells.array.PowerDomain`: the N words of the domain are
  accessed in series (a cell waits, powered, while its N-1 neighbours are
  accessed) and stored in series (the NVPG store phase lasts N x t_store,
  the origin of the large-N penalty in Fig. 7(b)).

Long sleep/shutdown intervals (micro- to milliseconds) therefore never
need to be transient-simulated — exactly how such papers extrapolate
their circuit simulations to millisecond shutdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SequenceError
from ..cells.array import PowerDomain
from ..characterize.data import CellCharacterization
from .modes import OperatingConditions
from .sequences import Architecture, BenchmarkSpec


@dataclass(frozen=True)
class CycleEnergyBreakdown:
    """E_cyc split by activity (joules per cell per benchmark cycle)."""

    access: float = 0.0          # the cell's own read/write cycles
    idle_active: float = 0.0     # powered idle while other words accessed
    standby: float = 0.0         # short t_SL intervals (sleep or shutdown)
    store: float = 0.0           # MTJ store energy (incl. waiting rows)
    long_period: float = 0.0     # the t_SD interval (sleep or shutdown)
    restore: float = 0.0         # wake-up energy

    @property
    def total(self) -> float:
        return (self.access + self.idle_active + self.standby +
                self.store + self.long_period + self.restore)

    def as_dict(self) -> Dict[str, float]:
        return {
            "access": self.access,
            "idle_active": self.idle_active,
            "standby": self.standby,
            "store": self.store,
            "long_period": self.long_period,
            "restore": self.restore,
            "total": self.total,
        }


class CellEnergyModel:
    """Composes characterised energies into E_cyc for the three
    architectures over a given power domain.

    Parameters
    ----------
    nv:
        Characterisation of the NV-SRAM cell (used by NVPG and NOF).
    volatile:
        Characterisation of the 6T baseline (used by OSR).
    cond:
        Operating conditions (timings, read:write ratio).
    domain:
        Power-domain geometry; must match the characterisations'
        bitline loading.
    """

    def __init__(self, nv: CellCharacterization,
                 volatile: CellCharacterization,
                 cond: OperatingConditions,
                 domain: PowerDomain):
        if nv.kind != "nv" or volatile.kind != "6t":
            raise SequenceError("characterisations passed in wrong order")
        if nv.n_wordlines != domain.n_wordlines or \
                volatile.n_wordlines != domain.n_wordlines:
            raise SequenceError(
                "characterisation domain depth does not match the domain: "
                f"nv={nv.n_wordlines}, 6t={volatile.n_wordlines}, "
                f"domain={domain.n_wordlines}"
            )
        self.nv = nv
        self.volatile = volatile
        self.cond = cond
        self.domain = domain

    # -- public API -------------------------------------------------------
    def cycle_energy(self, spec: BenchmarkSpec) -> CycleEnergyBreakdown:
        """E_cyc of one benchmark cycle of ``spec`` (per cell)."""
        arch = spec.architecture
        if arch is Architecture.OSR:
            return self._osr(spec)
        if arch is Architecture.NVPG:
            return self._nvpg(spec)
        return self._nof(spec)

    def e_cyc(self, spec: BenchmarkSpec) -> float:
        """Scalar E_cyc (joules per cell per benchmark cycle)."""
        return self.cycle_energy(spec).total

    def effective_cycle_time(self, arch: Architecture) -> float:
        """Read/write cycle time as the workload experiences it.

        OSR and NVPG run at the nominal cycle time (the PS-FinFETs isolate
        the MTJs); NOF pays the per-cycle wake-up and write-back on top —
        the paper's "severe performance degradation".
        """
        t_cyc = self.cond.t_cycle
        if arch is Architecture.NOF:
            return t_cyc + self.nv.t_restore + self.nv.t_store
        return t_cyc

    # -- architecture compositions --------------------------------------------
    def _pass_counts(self):
        """Reads-per-pass ratio (each pass: rho reads + 1 write per word)."""
        return self.cond.read_write_ratio

    def _osr(self, spec: BenchmarkSpec) -> CycleEnergyBreakdown:
        c = self.volatile
        rho = self._pass_counts()
        n = self.domain.n_wordlines
        t_cyc = self.cond.t_cycle

        access = spec.n_rw * (rho * c.e_read + c.e_write)
        idle = spec.n_rw * c.p_normal * (n - 1) * (rho + 1.0) * t_cyc
        standby = spec.n_rw * c.p_sleep * spec.t_sl
        long_period = c.p_sleep * spec.t_sd
        return CycleEnergyBreakdown(
            access=access, idle_active=idle, standby=standby,
            long_period=long_period,
        )

    def _nvpg(self, spec: BenchmarkSpec) -> CycleEnergyBreakdown:
        c = self.nv
        rho = self._pass_counts()
        n = self.domain.n_wordlines
        t_cyc = self.cond.t_cycle

        access = spec.n_rw * (rho * c.e_read + c.e_write)
        idle = spec.n_rw * c.p_normal * (n - 1) * (rho + 1.0) * t_cyc
        standby = spec.n_rw * c.p_sleep * spec.t_sl
        if spec.store_free:
            store = 0.0
        else:
            # Word lines are stored in series; while the other N-1 rows
            # take their turn this cell waits at normal retention.
            store = c.e_store + c.p_normal * (n - 1) * c.t_store
        long_period = c.p_shutdown * spec.t_sd
        restore = c.e_restore
        return CycleEnergyBreakdown(
            access=access, idle_active=idle, standby=standby,
            store=store, long_period=long_period, restore=restore,
        )

    def _nof(self, spec: BenchmarkSpec) -> CycleEnergyBreakdown:
        c = self.nv
        rho = self._pass_counts()
        n = self.domain.n_wordlines
        t_cyc = self.cond.t_cycle

        store_each = 0.0 if spec.store_free else c.e_store
        t_store_each = 0.0 if spec.store_free else c.t_store
        # Every access wakes the word line; writes additionally write back
        # to the MTJs before the line shuts off again.
        t_read_slot = t_cyc + c.t_restore
        t_write_slot = t_cyc + c.t_restore + t_store_each

        access = spec.n_rw * (
            rho * (c.e_read + c.e_restore) + (c.e_write + c.e_restore)
        )
        store = spec.n_rw * store_each
        # While other words are accessed this cell is OFF (fine-grained
        # per-word-line gating) — the defining NOF property.
        idle = spec.n_rw * c.p_shutdown * (n - 1) * (
            rho * t_read_slot + t_write_slot
        )
        standby = spec.n_rw * c.p_shutdown * spec.t_sl
        long_period = c.p_shutdown * spec.t_sd
        restore = c.e_restore  # final wake-up after the long shutdown
        return CycleEnergyBreakdown(
            access=access, idle_active=idle, standby=standby,
            store=store, long_period=long_period, restore=restore,
        )

    # -- affine structure (used by the closed-form BET) ----------------------
    def e_cyc_affine(self, spec: BenchmarkSpec):
        """Return (E_cyc at t_SD = 0, dE_cyc/dt_SD).

        E_cyc is exactly affine in t_SD: the long period contributes
        static power x t_SD and nothing else depends on it.
        """
        base = self.e_cyc(
            BenchmarkSpec(
                architecture=spec.architecture, n_rw=spec.n_rw,
                t_sl=spec.t_sl, t_sd=0.0, store_free=spec.store_free,
            )
        )
        if spec.architecture is Architecture.OSR:
            slope = self.volatile.p_sleep
        else:
            slope = self.nv.p_shutdown
        return base, slope
