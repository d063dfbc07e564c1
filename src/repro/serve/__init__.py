"""Characterisation-as-a-service: the hardened async serving layer.

``repro.serve`` fronts :func:`repro.characterize.runner.characterize_cell`
and :func:`repro.characterize.ff_runner.characterize_nvff` with a
dependency-free asyncio HTTP/JSON server.  The robustness contract (see
``docs/SERVICE.md``):

* **Single-flight coalescing** — requests are canonicalised and
  content-hashed with the campaign ``task_id`` rules; concurrent
  identical requests attach to one in-flight execution.
* **Admission control** — one bounded admission budget with explicit
  ``429 + Retry-After`` load shedding; memory is bounded everywhere
  (queues, coalesce groups, result memo).
* **Deadlines end-to-end** — each request's deadline becomes the
  executor watchdog timeout for its task, and the waiter's own timer;
  one of them always fires, so every request gets a terminal answer.
* **Degraded mode** — a circuit breaker over backend quarantines trips
  the server to cache-only serving: stale-but-stamped results carry
  ``degraded: true``; novel requests get ``503`` until recovery.
* **Graceful drain** — SIGTERM flips ``/readyz``, stops admission and
  drains in-flight work through the executor's two-stage drain before
  the socket closes.
"""

from .. import _lazy_exports

_EXPORTS = {
    "AdmissionController": ".admission",
    "CircuitBreaker": ".breaker",
    "Coalescer": ".coalesce",
    "ExecBackend": ".backend",
    "ProtocolError": ".protocol",
    "ReproServer": ".server",
    "ServeClient": ".client",
    "ServeOptions": ".server",
    "ServeRequest": ".protocol",
    "ServerHandle": ".server",
    "canonicalize": ".protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
