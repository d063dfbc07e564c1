"""Wire protocol: request canonicalisation and response mapping.

Coalescing only works if equivalent requests hash identically, so the
server never hashes raw bodies.  Every characterisation request is
rebuilt through the same parameter dataclasses the task functions use
(:class:`~repro.pg.modes.OperatingConditions`,
:class:`~repro.cells.PowerDomain`, device cards), which fills defaults
and rejects unknown fields; the fully-expanded params dict is then
content-hashed with the campaign ``stable_hash`` rules (float-repr
normalisation included).  ``{"cond": {}}`` and an explicit
spelled-out default condition therefore coalesce onto one execution.

The response side is a closed status vocabulary — every request
terminates in exactly one of :data:`STATUS_HTTP`'s statuses (the serve
N-in/N-out invariant, chaos-tested in ``repro chaos --serve``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from ..errors import ReproError
from ..exec.campaign import stable_hash

#: Terminal response statuses and their HTTP codes.  ``ok`` and
#: ``degraded`` both carry a result payload (``degraded`` stamps it as
#: cache-only, served while the breaker is open); ``skipped`` is a
#: deterministic analysis failure (would fail identically on retry);
#: ``failed`` is a quarantined task (crash / hang / poison after the
#: retry budget); the rest are serving-layer outcomes.
STATUS_HTTP: Dict[str, int] = {
    "ok": 200,
    "degraded": 200,
    "bad-request": 400,
    "skipped": 422,
    "shed": 429,
    "error": 500,
    "failed": 502,
    "draining": 503,
    "unavailable": 503,
    "deadline": 504,
    "not-found": 404,
    "method-not-allowed": 405,
}

#: Cell kinds accepted by the characterize route.
CELL_KINDS = ("nv", "6t")

#: Fields every request may carry in addition to route-specific ones.
_COMMON_FIELDS = frozenset({"deadline_s"})

_ROUTE_FIELDS: Dict[str, frozenset] = {
    "characterize": frozenset({"kind", "cond", "domain", "nfet", "pfet",
                               "mtj"}),
    "nvff": frozenset({"cond", "nfet", "pfet", "mtj"}),
    # passthrough routes (demo / chaos) take one opaque params object
    "params": frozenset({"params"}),
}


class ProtocolError(ReproError):
    """The request body is malformed; maps to ``400 bad-request``."""


@dataclass(frozen=True)
class ServeRequest:
    """One canonicalised request.

    ``key`` is the content hash of ``(route, params)`` — the coalescing
    identity, the backend task id, and the cache-memo key, all one
    value.  ``deadline_s`` is execution policy and stays out of the
    hash (two clients asking the same question with different patience
    still share one execution).
    """

    route: str
    params: Dict[str, Any]
    key: str
    deadline_s: float = 30.0


def _expand(factory, payload: Any, default, name: str) -> Optional[dict]:
    """Rebuild a parameter dataclass and return its full ``asdict``.

    Filling every default is what makes canonicalisation total: a body
    that spells out the default voltage and one that omits it produce
    byte-identical params.
    """
    if payload is None:
        return None if default is None else asdict(default)
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"{name!r} must be a JSON object")
    try:
        return asdict(factory(**payload))
    except (TypeError, ReproError) as err:
        raise ProtocolError(f"bad {name!r}: {err}") from err


def _characterize_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    from ..cells import PowerDomain
    from ..devices.mtj import MTJ_TABLE1, MTJParams
    from ..devices.finfet import FinFETParams
    from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
    from ..pg.modes import OperatingConditions

    kind = body.get("kind", "nv")
    if kind not in CELL_KINDS:
        raise ProtocolError(f"kind must be one of {CELL_KINDS}, "
                            f"got {kind!r}")
    return {
        "kind": kind,
        "cond": _expand(OperatingConditions, body.get("cond"),
                        OperatingConditions(), "cond"),
        "domain": _expand(PowerDomain, body.get("domain"),
                          PowerDomain(), "domain"),
        "nfet": _expand(FinFETParams, body.get("nfet"),
                        NFET_20NM_HP, "nfet"),
        "pfet": _expand(FinFETParams, body.get("pfet"),
                        PFET_20NM_HP, "pfet"),
        "mtj": _expand(MTJParams, body.get("mtj"), MTJ_TABLE1, "mtj"),
    }


def _nvff_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    from ..devices.mtj import MTJ_TABLE1, MTJParams
    from ..devices.finfet import FinFETParams
    from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
    from ..pg.modes import OperatingConditions

    return {
        "cond": _expand(OperatingConditions, body.get("cond"),
                        OperatingConditions(), "cond"),
        "nfet": _expand(FinFETParams, body.get("nfet"),
                        NFET_20NM_HP, "nfet"),
        "pfet": _expand(FinFETParams, body.get("pfet"),
                        PFET_20NM_HP, "pfet"),
        "mtj": _expand(MTJParams, body.get("mtj"), MTJ_TABLE1, "mtj"),
    }


def _passthrough_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    params = body.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError("'params' must be a JSON object")
    try:
        json.dumps(params)
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"'params' is not JSON data: {err}") from err
    return dict(params)


def canonicalize(route: str, body: Mapping[str, Any], *,
                 default_deadline_s: float = 30.0,
                 min_deadline_s: float = 0.05,
                 max_deadline_s: float = 300.0) -> ServeRequest:
    """Validate and canonicalise one request body.

    Raises :class:`ProtocolError` on unknown fields, malformed
    parameter objects or an unusable deadline; the deadline is clamped
    into ``[min_deadline_s, max_deadline_s]`` rather than rejected.
    """
    if not isinstance(body, Mapping):
        raise ProtocolError("request body must be a JSON object")
    allowed = _ROUTE_FIELDS.get(route, _ROUTE_FIELDS["params"])
    unknown = sorted(set(body) - set(allowed) - _COMMON_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s) {unknown}; "
            f"{route!r} accepts {sorted(allowed | _COMMON_FIELDS)}")

    try:
        deadline_s = float(body.get("deadline_s", default_deadline_s))
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"bad deadline_s: {err}") from err
    deadline_s = min(max(deadline_s, min_deadline_s), max_deadline_s)

    if route == "characterize":
        params = _characterize_params(body)
    elif route == "nvff":
        params = _nvff_params(body)
    else:
        params = _passthrough_params(body)

    key = stable_hash({"route": route, "params": params}, length=24)
    return ServeRequest(route=route, params=params, key=key,
                        deadline_s=deadline_s)
