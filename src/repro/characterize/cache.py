"""Disk cache for characterisation results.

Characterising a cell costs several transient simulations; the figure
sweeps (Fig. 7-9) reuse the same characterisations across dozens of
parameter points.  A :class:`CellPoint` names one characterisation (the
kind and every input that affects its result: operating conditions,
domain geometry, device cards); results are cached as JSON under its
:attr:`~CellPoint.key`, one file per key under ``$REPRO_CACHE_DIR``
(see :func:`repro.exec.envelope.cache_root`); pass ``cache_dir=None``
through the runner to disable caching entirely.

Each entry is an integrity envelope (:mod:`repro.exec.envelope`): a
truncated write, a bit-flip or a stale-schema file is quarantined with a
warning and recomputed, and an unwritable directory warns once and turns
caching off instead of killing a long campaign.

Every load/store lands in process-wide :class:`CacheStats` counters
(hits, misses, quarantines, served-entry ages) so the serve layer's
``/metrics`` endpoint can report cache health without touching cache
behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Type, TypeVar

from ..cells import PowerDomain
from ..devices.finfet import FinFETParams
from ..devices.mtj import MTJ_TABLE1, MTJParams
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..errors import CharacterizationError, ReproError
from ..exec import envelope
from ..exec.campaign import stable_hash
from ..pg.modes import OperatingConditions
from .data import CellCharacterization, FlipFlopCharacterization

#: Bump when characterisation semantics change to invalidate old entries.
#: 5: integrity envelope (schema + payload checksum) around each entry.
#: 6: numerical-trust extras (worst residual / condition estimate /
#:    defended-solve count) recorded with every characterisation.
#: 7: NV-FF entries moved from raw JSON into the same integrity
#:    envelope (generic payload API); raw pre-7 files get fresh keys.
CACHE_SCHEMA_VERSION = 7

_Result = TypeVar("_Result")


class CacheStats:
    """Process-wide cache observability counters.

    Pure telemetry for the serve layer's ``/metrics`` (its circuit
    breaker decides on backend outcomes only): hits, misses,
    quarantines, stores, and the age of the entries actually served.  Counters never influence what a load
    returns — a process with the counters zeroed behaves identically.

    Thread-safe: the serve layer probes the cache from request threads
    while campaign workers store into it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.stores = 0
        self.store_failures = 0
        self.last_hit_age_s: Optional[float] = None
        self.max_hit_age_s: float = 0.0

    def note(self, event: str, age_s: Optional[float] = None) -> None:
        with self._lock:
            if event == "hit":
                self.hits += 1
                if age_s is not None:
                    self.last_hit_age_s = age_s
                    self.max_hit_age_s = max(self.max_hit_age_s, age_s)
            elif event == "miss":
                self.misses += 1
            elif event == "quarantine":
                self.quarantined += 1
            elif event == "store":
                self.stores += 1
            elif event == "store_failure":
                self.store_failures += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
                "stores": self.stores,
                "store_failures": self.store_failures,
                "hit_rate": (self.hits / total) if total else None,
                "last_hit_age_s": self.last_hit_age_s,
                "max_hit_age_s": self.max_hit_age_s,
            }

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.quarantined = 0
            self.stores = self.store_failures = 0
            self.last_hit_age_s = None
            self.max_hit_age_s = 0.0


#: The process-wide counter object (see :class:`CacheStats`).  Campaign
#: tasks bump it too: the counters are observability only, so a task
#: rerun with them zeroed produces identical payloads.
STATS = CacheStats()


def cache_key(**inputs: Any) -> str:
    """Deterministic hash of the characterisation inputs."""
    return stable_hash({**inputs, "__schema__": CACHE_SCHEMA_VERSION},
                       length=24)


def load(cache_dir: Optional[Path], key: str,
         result_type: Type[_Result] = CellCharacterization,
         ) -> Optional[_Result]:
    """Fetch a cached ``result_type`` instance, or None.

    An entry that fails the envelope's integrity check, or whose payload
    no longer fits ``result_type``, is quarantined with a warning.
    Every call with a ``cache_dir`` counts one ``hit`` (with the entry's
    age) or one ``miss``, plus one ``quarantine`` per quarantined entry.
    """
    if cache_dir is None:
        return None
    payload, outcome = envelope.load(cache_dir, key, CACHE_SCHEMA_VERSION)
    if payload is None:
        if outcome == envelope.QUARANTINE:
            STATS.note(envelope.QUARANTINE)
        STATS.note(envelope.MISS)
        return None
    STATS.note(envelope.HIT, envelope.entry_age_s(cache_dir, key))
    try:
        return result_type(**payload)
    except TypeError as err:
        envelope.quarantine(envelope.entry_path(cache_dir, key),
                            f"payload does not fit {result_type.__name__} "
                            f"({err})")
        STATS.note(envelope.QUARANTINE)
        return None


def store(cache_dir: Optional[Path], key: str, result: Any) -> None:
    """Persist a characterisation result (a dataclass record)."""
    if cache_dir is None:
        return
    outcome = envelope.store(cache_dir, key, CACHE_SCHEMA_VERSION,
                             asdict(result))
    if outcome is not None:
        STATS.note(outcome)


# ---------------------------------------------------------------------------
# the characterisation point
# ---------------------------------------------------------------------------

#: Kinds of :func:`~repro.characterize.runner.characterize_cell`.
CELL_KINDS = ("nv", "6t")

#: A point's parts after ``kind``: name, the parameter dataclass its
#: JSON object rebuilds, and its Table I default.
_PARTS = (("cond", OperatingConditions, OperatingConditions()),
          ("domain", PowerDomain, PowerDomain()),
          ("nfet", FinFETParams, NFET_20NM_HP),
          ("pfet", FinFETParams, PFET_20NM_HP),
          ("mtj", MTJParams, MTJ_TABLE1))


@dataclass(frozen=True)
class CellPoint:
    """One characterisation: a kind and every input its result reads.

    ``kind`` is a cell (``"nv"``, ``"6t"``) or the NV flip-flop
    (``"nvff"``, whose ``domain`` stays ``None``).  A part given as
    ``None`` takes its Table I default.  :attr:`key` is the disk-cache
    key, and :meth:`to_params` / :meth:`from_params` are the one JSON
    form of a campaign task and a serve request.
    """

    kind: str
    cond: Optional[OperatingConditions] = None
    domain: Optional[PowerDomain] = None
    nfet: Optional[FinFETParams] = None
    pfet: Optional[FinFETParams] = None
    mtj: Optional[MTJParams] = None

    def __post_init__(self):
        if self.kind not in CELL_KINDS + ("nvff",):
            raise CharacterizationError(
                f"unknown characterisation kind {self.kind!r}")
        if self.kind == "nvff" and self.domain is not None:
            raise CharacterizationError("an 'nvff' point has no domain")
        for name, _, default in _PARTS:
            if getattr(self, name) is None and (
                    name != "domain" or self.kind != "nvff"):
                object.__setattr__(self, name, default)

    def _parts(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name, _, _ in _PARTS
                if getattr(self, name) is not None}

    @property
    def key(self) -> str:
        """Hash of ``kind`` and every part the point has."""
        return cache_key(kind=self.kind, **self._parts())

    @property
    def result_type(self) -> type:
        """The record a characterisation of this point returns."""
        if self.kind == "nvff":
            return FlipFlopCharacterization
        return CellCharacterization

    def to_params(self) -> Dict[str, Any]:
        """The JSON form: ``kind`` and each part's ``asdict``."""
        return {"kind": self.kind,
                **{name: asdict(part) for name, part in self._parts().items()}}

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "CellPoint":
        """Rebuild a point from :meth:`to_params`' form: the one check of
        outside input.

        Each part is a JSON object of its dataclass's fields (absent or
        null: the default); other keys are ignored.  An integral number
        on a float field becomes a float, an int field takes only
        integral numbers and a boolean is no number, so ``300000000``
        and ``3e8`` name one point.  Raises
        :class:`~repro.errors.CharacterizationError` naming the part.
        """
        return cls(params.get("kind"),
                   **{name: _rebuild(name, factory, params.get(name))
                      for name, factory, _ in _PARTS})


def _rebuild(name: str, factory: type, payload: Any) -> Any:
    """``factory`` from the JSON object ``payload``, numbers fitted."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise CharacterizationError(f"{name!r} must be a JSON object")
    types = {f.name: f.type for f in fields(factory)}
    try:
        return factory(**{field: _fit(field, types.get(field), value)
                          for field, value in payload.items()})
    except (TypeError, ValueError, OverflowError, ReproError) as err:
        raise CharacterizationError(f"bad {name!r}: {err}") from err


def _fit(field: str, ftype: Optional[str], value: Any) -> Any:
    """``value`` as a ``float``, ``int`` or ``str`` field takes it."""
    if ftype == "str" and not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {value!r}")
    if ftype not in ("float", "int"):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a number, got {value!r}")
    if ftype == "float":
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def characterized(point: CellPoint, cache_dir: "Optional[Path] | str",
                  extract: Callable[[CellPoint], _Result]) -> _Result:
    """The cached result of ``point``, or ``extract(point)`` validated
    and stored.  ``cache_dir="auto"`` resolves
    :func:`~repro.exec.envelope.cache_root` at call time."""
    if cache_dir == "auto":
        cache_dir = envelope.cache_root()
    key = point.key
    cached = load(cache_dir, key, point.result_type)
    if cached is not None:
        return cached
    result = extract(point)
    result.validate()
    store(cache_dir, key, result)
    return result
