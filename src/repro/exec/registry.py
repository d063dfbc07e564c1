"""Named campaign builders for ``python -m repro campaign run <name>``.

The CLI addresses campaigns by name; each builder turns a small option
dict into a full :class:`~repro.exec.campaign.Campaign`.  Because task
ids and the campaign key are content-derived, running the same named
campaign with the same options always produces the same key — which is
what makes ``--resume`` against an existing journal work from the
command line.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .campaign import Campaign, CampaignError, make_task


def _build_demo(options: Dict[str, Any]) -> Campaign:
    n = int(options.get("tasks", 8))
    work = float(options.get("work", 0.0))
    tasks = [
        make_task({"x": float(i), "work": work}, label=f"square {i}")
        for i in range(n)
    ]
    return Campaign(name="demo", fn="repro.exec.tasks:demo_task",
                    tasks=tasks)


def _build_store_yield(options: Dict[str, Any]) -> Campaign:
    from ..characterize.variability import store_yield_campaign
    return store_yield_campaign(
        n_samples=int(options.get("samples", 200)),
        seed=int(options.get("seed", 2015)),
    )


def _build_snm(options: Dict[str, Any]) -> Campaign:
    from ..characterize.variability import snm_campaign
    return snm_campaign(
        n_samples=int(options.get("samples", 100)),
        seed=int(options.get("seed", 2015)),
    )


def _build_chaos(options: Dict[str, Any]) -> Campaign:
    from ..recovery.faults import build_executor_chaos_campaign
    scratch = options.get("scratch")
    if not scratch:
        raise CampaignError("the chaos campaign needs a scratch directory")
    return build_executor_chaos_campaign(
        scratch=scratch,
        n_healthy=int(options.get("tasks", 4)),
        seed=int(options.get("seed", 2015)),
    )


_BUILDERS: Dict[str, Callable[[Dict[str, Any]], Campaign]] = {
    "demo": _build_demo,
    "store-yield": _build_store_yield,
    "snm": _build_snm,
    "chaos": _build_chaos,
}


def available_campaigns() -> List[str]:
    """Names accepted by :func:`build_campaign` (and `repro campaign list`)."""
    return sorted(_BUILDERS)


def build_campaign(name: str, **options: Any) -> Campaign:
    """Build the named campaign; raises on unknown names."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(available_campaigns())
        raise CampaignError(
            f"unknown campaign {name!r} (available: {known})"
        ) from None
    return builder(options)
