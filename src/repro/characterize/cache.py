"""Disk cache for characterisation results.

Characterising a cell costs several transient simulations; the figure
sweeps (Fig. 7-9) reuse the same characterisations across dozens of
parameter points.  Results are cached as JSON keyed by a hash of every
input that affects them (cell kind, operating conditions, domain
geometry, device cards), one file per key under ``$REPRO_CACHE_DIR``
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

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Type, TypeVar

from ..exec import envelope
from ..exec.campaign import stable_hash
from .data import CellCharacterization

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
    """Persist a characterisation result (a dataclass with ``to_json``)."""
    if cache_dir is None:
        return
    outcome = envelope.store(cache_dir, key, CACHE_SCHEMA_VERSION,
                             json.loads(result.to_json()))
    if outcome is not None:
        STATS.note(outcome)
