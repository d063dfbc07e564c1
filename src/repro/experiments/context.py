"""Shared experiment context: characterisation + energy-model factory.

The figure sweeps need a :class:`~repro.pg.energy.CellEnergyModel` for
many (conditions, domain) combinations; this context memoises the
underlying cell characterisations (in memory per process, and on disk via
the characterisation cache) so that, e.g., Fig. 7(b)'s seven domain
depths and Fig. 9's N-sweep do not re-simulate anything twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..cells import PowerDomain
from ..characterize.data import CellCharacterization
from ..characterize.runner import characterize_cell
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..exec.envelope import cache_root
from ..pg.energy import CellEnergyModel
from ..pg.modes import OperatingConditions


@dataclass
class ExperimentContext:
    """Characterisation/memoisation hub for experiment runs.

    Parameters
    ----------
    cond:
        Baseline operating conditions (Table I defaults).
    mtj_params:
        MTJ card (Table I; Fig. 9(b) swaps in the low-Jc card).
    cache_dir:
        Disk cache for characterisations; ``None`` disables it.
    """

    cond: OperatingConditions = field(default_factory=OperatingConditions)
    nfet: FinFETParams = NFET_20NM_HP
    pfet: FinFETParams = PFET_20NM_HP
    mtj_params: MTJParams = MTJ_TABLE1
    cache_dir: Optional[Path] = field(
        default_factory=cache_root
    )  # resolved at context creation; honours REPRO_CACHE_DIR
    _memo: Dict[Tuple, CellCharacterization] = field(
        default_factory=dict, repr=False
    )

    def characterization(self, kind: str,
                         domain: PowerDomain,
                         cond: Optional[OperatingConditions] = None,
                         mtj_params: Optional[MTJParams] = None,
                         ) -> CellCharacterization:
        """Memoised cell characterisation."""
        cond = cond or self.cond
        mtj_params = mtj_params or self.mtj_params
        key = (kind, domain.n_wordlines, domain.word_bits, cond, mtj_params)
        if key not in self._memo:
            self._memo[key] = characterize_cell(
                kind, cond, domain,
                nfet=self.nfet, pfet=self.pfet, mtj_params=mtj_params,
                cache_dir=self.cache_dir,
            )
        return self._memo[key]

    def energy_model(self, domain: PowerDomain,
                     cond: Optional[OperatingConditions] = None,
                     mtj_params: Optional[MTJParams] = None,
                     ) -> CellEnergyModel:
        """Energy model backed by memoised characterisations."""
        cond = cond or self.cond
        nv = self.characterization("nv", domain, cond, mtj_params)
        volatile = self.characterization("6t", domain, cond, mtj_params)
        return CellEnergyModel(nv, volatile, cond, domain)

    def prewarm_campaign(self, points, name: str = "prewarm"):
        """Characterisation campaign covering ``points``.

        ``points`` is an iterable of ``(domain, cond, mtj_params)``
        tuples (``cond``/``mtj_params`` may be ``None`` for the context
        defaults).  Each point needs both the "nv" and "6t" cell
        characterised (that is what :meth:`energy_model` consumes);
        duplicate combinations collapse to one task via the
        content-derived task id.
        """
        from ..exec import Campaign, make_task
        from ..exec.tasks import characterize_params

        tasks: Dict[str, object] = {}
        meta: Dict[str, Tuple] = {}
        for domain, cond, mtj_params in points:
            cond = cond or self.cond
            mtj_params = mtj_params or self.mtj_params
            for kind in ("nv", "6t"):
                task = make_task(
                    characterize_params(kind, cond, domain, self.nfet,
                                        self.pfet, mtj_params,
                                        self.cache_dir),
                    label=f"{kind} N={domain.n_wordlines}"
                          f"x{domain.word_bits}",
                )
                if task.task_id not in tasks:
                    tasks[task.task_id] = task
                    meta[task.task_id] = (kind, domain, cond, mtj_params)
        campaign = Campaign(name=name,
                            fn="repro.exec.tasks:characterize_task",
                            tasks=list(tasks.values()))
        return campaign, meta

    def prewarm(self, points, workers: int = 2, journal=None,
                name: str = "prewarm"):
        """Characterise ``points`` through a fault-tolerant campaign.

        Completed characterisations are folded into this context's
        in-memory memo (and were already written through the shared disk
        cache by the workers), so the serial figure-assembly pass that
        follows never re-simulates them — which is what makes a
        campaign-accelerated figure identical to the serial one by
        construction.  Failed points are simply *not* folded; the serial
        pass re-attempts them and surfaces the real error.

        Returns the :class:`~repro.exec.CampaignResult`.
        """
        from ..characterize.data import CellCharacterization
        from ..exec import COMPLETED, CampaignOptions, run_campaign

        campaign, meta = self.prewarm_campaign(points, name=name)
        options = CampaignOptions(workers=workers,
                                  resume=journal is not None)
        result = run_campaign(campaign, journal=journal, options=options)
        for task_id, (kind, domain, cond, mtj_params) in meta.items():
            outcome = result.outcome(task_id)
            if (outcome is not None and outcome.status == COMPLETED
                    and outcome.result):
                key = (kind, domain.n_wordlines, domain.word_bits, cond,
                       mtj_params)
                self._memo[key] = CellCharacterization(**outcome.result)
        return result
