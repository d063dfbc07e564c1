"""Power-switch sizing (paper Fig. 4): virtual-VDD vs N_FSW.

The header switch must be wide enough that the virtual rail barely sags
under load.  The store mode is the critical case: connecting the MTJs
drops the cell impedance, so VV_DD degrades fastest there with shrinking
N_FSW.  The paper chooses N_FSW = 7, where VV_DD retains 97 % of VDD
during the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..recovery.partial import SkipRecord, run_point
from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJParams, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from .testbench import build_cell_testbench


@dataclass
class VvddSweep:
    """Fig. 4 data: virtual rail voltage vs power-switch fins per cell."""

    nfsw: np.ndarray
    vvdd_normal: np.ndarray
    vvdd_store: np.ndarray
    vdd: float
    skips: List[SkipRecord] = field(default_factory=list)  # NaN points

    def retention_fraction_store(self) -> np.ndarray:
        """VV_DD / V_DD during the store mode (NaN at skipped points)."""
        return self.vvdd_store / self.vdd

    def smallest_nfsw_for(self, fraction: float) -> Optional[int]:
        """Smallest N_FSW whose store-mode VV_DD >= fraction * VDD.

        Skipped (NaN) points never compare true, so the answer is always
        backed by a converged solve.
        """
        ok = np.nonzero(self.retention_fraction_store() >= fraction)[0]
        if ok.size == 0:
            return None
        return int(self.nfsw[ok[0]])

    def rows(self):
        return [
            (int(n), float(vn), float(vs))
            for n, vn, vs in zip(self.nfsw, self.vvdd_normal, self.vvdd_store)
        ]


def vvdd_vs_nfsw(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    nfsw_values: Sequence[int] = tuple(range(1, 11)),
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
    mtj_params: MTJParams = MTJ_TABLE1,
) -> VvddSweep:
    """Reproduce Fig. 4: sweep the power-switch fin number.

    For each N_FSW the testbench is rebuilt (the fin number is structural)
    and the virtual-rail voltage is read from DC operating points in the
    normal mode and in the store mode (H-store step, the heavier load).
    """
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    v_normal = []
    v_store = []
    skips: List[SkipRecord] = []
    for i, nfsw in enumerate(nfsw_values):
        tb = build_cell_testbench("nv", cond, domain, nfsw=int(nfsw),
                                  nfet=nfet, pfet=pfet,
                                  mtj_params=mtj_params)

        def normal_point():
            return tb.settle(Mode.STANDBY).voltage("vvdd")

        def store_point():
            # The junctions hold the complement of Q, so the H-store
            # current flows.
            tb.set_mtj_data(False)
            return tb.settle(Mode.STORE_H).voltage("vvdd")

        value, skip = run_point(normal_point, index=i,
                                label=f"nfsw={int(nfsw)} (normal)",
                                stage="vvdd_vs_nfsw", nfsw=int(nfsw))
        v_normal.append(float("nan") if skip else value)
        if skip:
            skips.append(skip)

        value, skip = run_point(store_point, index=i,
                                label=f"nfsw={int(nfsw)} (store)",
                                stage="vvdd_vs_nfsw", nfsw=int(nfsw))
        v_store.append(float("nan") if skip else value)
        if skip:
            skips.append(skip)

    return VvddSweep(
        nfsw=np.asarray(list(nfsw_values), dtype=int),
        vvdd_normal=np.asarray(v_normal),
        vvdd_store=np.asarray(v_store),
        vdd=cond.vdd,
        skips=skips,
    )
