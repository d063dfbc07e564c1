"""Wire protocol: request canonicalisation and response mapping.

Coalescing only works if equivalent requests hash identically, so the
server never hashes raw bodies.  A ``characterize`` or ``nvff`` body is
the JSON form of one :class:`~repro.characterize.cache.CellPoint`;
:meth:`~repro.characterize.cache.CellPoint.from_params` fills its
defaults, rejects unknown fields and fits each number to its field, and
the point's ``to_params`` is content-hashed with the campaign
``stable_hash`` rules.  ``{"cond": {}}``, a spelled-out default
condition and ``{"cond": {"frequency": 300000000}}`` therefore coalesce
onto one execution.

The response side is a closed status vocabulary — every request
terminates in exactly one of :data:`STATUS_HTTP`'s statuses (the serve
N-in/N-out invariant, chaos-tested in ``repro chaos --serve``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from ..errors import CharacterizationError, ReproError
from ..exec.campaign import stable_hash

if TYPE_CHECKING:
    from ..characterize.cache import CellPoint

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

#: Fields every request may carry in addition to route-specific ones.
_COMMON_FIELDS = frozenset({"deadline_s"})

#: Deadline of a request that names none, and the range every deadline
#: is clamped into (seconds).
DEFAULT_DEADLINE_S = 30.0
MIN_DEADLINE_S = 0.05
MAX_DEADLINE_S = 300.0

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
    still share one execution).  ``point`` is what a ``characterize``
    or ``nvff`` request names (``params`` is its JSON form).
    """

    route: str
    params: Dict[str, Any]
    key: str
    deadline_s: float = DEFAULT_DEADLINE_S
    point: Optional["CellPoint"] = None


def _point(route: str, body: Mapping[str, Any]) -> "CellPoint":
    """The :class:`~repro.characterize.cache.CellPoint` a request names."""
    from ..characterize.cache import CELL_KINDS, CellPoint

    kind = "nvff" if route == "nvff" else body.get("kind", "nv")
    if route == "characterize" and kind not in CELL_KINDS:
        raise ProtocolError(f"kind must be one of {CELL_KINDS}, "
                            f"got {kind!r}")
    try:
        return CellPoint.from_params({**body, "kind": kind})
    except CharacterizationError as err:
        raise ProtocolError(str(err)) from err


def _passthrough_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    params = body.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError("'params' must be a JSON object")
    try:
        json.dumps(params)
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"'params' is not JSON data: {err}") from err
    return dict(params)


def canonicalize(route: str, body: Mapping[str, Any]) -> ServeRequest:
    """Validate and canonicalise one request body.

    Raises :class:`ProtocolError` on unknown fields, malformed
    parameter objects or an unusable deadline; the deadline (default
    ``DEFAULT_DEADLINE_S``) is clamped into ``[MIN_DEADLINE_S,
    MAX_DEADLINE_S]`` rather than rejected.
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
        deadline_s = float(body.get("deadline_s", DEFAULT_DEADLINE_S))
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"bad deadline_s: {err}") from err
    deadline_s = min(max(deadline_s, MIN_DEADLINE_S), MAX_DEADLINE_S)

    point = None
    if route in ("characterize", "nvff"):
        point = _point(route, body)
        params = point.to_params()
    else:
        params = _passthrough_params(body)

    key = stable_hash({"route": route, "params": params}, length=24)
    return ServeRequest(route=route, params=params, key=key,
                        deadline_s=deadline_s, point=point)
