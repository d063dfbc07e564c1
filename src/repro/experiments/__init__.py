"""Experiment regeneration: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a result dataclass
with ``rows()`` (the numeric series) and ``render()`` (a printable table
mirroring what the paper plots).  The benchmark harness under
``benchmarks/`` simply calls these.

===========  ==========================================================
Module        Paper artefact
===========  ==========================================================
``table1``    Table I — device & circuit parameters (and realised card)
``fig1``      Fig. 1 — conceptual power-vs-time of NVPG vs NOF
``fig3``      Fig. 3(a)-(c) — leakage and store-current bias sweeps
``fig4``      Fig. 4 — virtual-VDD vs power-switch fin number
``fig5``      Fig. 5 — benchmark sequence timelines (textual)
``fig6``      Fig. 6(a)-(c) — power traces and per-mode static power
``fig7``      Fig. 7(a)-(c) — E_cyc vs n_RW sweeps
``fig8``      Fig. 8(a)-(b) — E_cyc vs t_SD and normalised crossover
``fig9``      Fig. 9(a)-(b) — BET vs domain depth N
===========  ==========================================================
"""

from .. import _lazy_exports

_EXPORTS = {
    "ExperimentContext": ".context",
    "run_table1": ".table1",
    "run_fig1": ".fig1",
    "run_fig3": ".fig3",
    "run_fig4": ".fig4",
    "run_fig5": ".fig5",
    "run_fig6": ".fig6",
    "run_fig7a": ".fig7",
    "run_fig7b": ".fig7",
    "run_fig7c": ".fig7",
    "run_fig8": ".fig8",
    "run_fig9": ".fig9",
    "run_summary": ".summary",
    "SummaryResult": ".summary",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
