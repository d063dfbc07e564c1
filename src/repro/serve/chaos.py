"""Chaos harness for the serving layer (``repro chaos --serve``).

Boots a real server in-process, then attacks it with concurrent
clients and injected backend faults, phase by phase:

* **coalesce** — K identical concurrent requests; asserts exactly one
  backend execution and K identical answers.
* **storm** — a mixed wave of duplicate, novel and malformed requests;
  asserts the N-in/N-out invariant (every request gets exactly one
  terminal response from the closed status vocabulary) and that no
  canonical key executes more than once.
* **shed** — floods past the admission budget; asserts explicit
  ``429`` shedding with ``Retry-After`` instead of queue growth.
* **breaker** — poisons the backend until the circuit breaker trips;
  asserts cache-only degraded serving (``degraded: true``), ``503``
  for novel work, and closed-loop recovery after the cooldown.
* **drain** — graceful drain under load; asserts ``/readyz`` flips
  while in-flight work completes, new work is refused and the socket
  then closes.
* **conservation** — every request sent got exactly one response.

Each phase is one record of the ``serve``
:func:`~repro.recovery.forensics.chaos_report`, in this order.

Faults are injected through the ``chaos`` route's ``task_error`` kind
(an in-task raise), which is safe at every ``workers`` setting — the
process-killing fault kinds would take the in-process server down when
``workers=0`` runs tasks inline.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..recovery.forensics import chaos_report
from .client import ServeClient, ServeResponse
from .protocol import STATUS_HTTP
from .server import ServeOptions, ServerHandle


#: The suite's records, in order; conservation is always last.
PHASES = ("coalesce", "storm", "shed", "breaker", "drain", "conservation")


def _settle(client: ServeClient, timeout_s: float = 15.0) -> None:
    """Wait until the server has no admitted groups or running tasks.

    Phases must not leak load into each other: a deadline-abandoned
    leader can still be executing when its waiters are long gone.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        m = client.metrics()
        if (m["admission"]["pending"] == 0
                and m["backend"]["inflight"] == 0
                and m["coalesce"]["inflight"] == 0):
            return
        time.sleep(0.05)


def _valid(resp: ServeResponse) -> bool:
    """A terminal response: known status, matching HTTP code."""
    return (resp.status in STATUS_HTTP
            and STATUS_HTTP[resp.status] == resp.code)


def chaos_serve(scratch: str, n_clients: int = 24, n_unique: int = 6,
                seed: int = 2015, workers: int = 0,
                progress: Optional[Callable[[str], None]] = None,
                ) -> Dict[str, Any]:
    """Run the full serve chaos suite; returns its chaos report."""
    import random

    rng = random.Random(seed)
    scratch_dir = Path(scratch)
    scratch_dir.mkdir(parents=True, exist_ok=True)
    options = ServeOptions(
        extra_routes=("demo", "chaos"),
        workers=workers,
        cache_dir=scratch_dir / "cache",
        interactive_slots=2,
        max_pending_interactive=8,
        breaker_window=8,
        breaker_min_samples=4,
        breaker_threshold=0.5,
        breaker_cooldown_s=1.0,
        retry_after_s=0.2,
        drain_grace=8.0,
        drain_settle_s=0.1,
    )
    records: List[Dict[str, Any]] = []

    def phase(name: str, ok: bool, **metrics: Any) -> None:
        """Record one phase; its metrics are the record's detail."""
        detail = ", ".join(f"{k}={v}" for k, v in metrics.items())
        records.append({"name": name, "expected": "pass",
                        "actual": "pass" if ok else "fail", "ok": ok,
                        "detail": detail, **metrics})
        if progress is not None:
            progress(f"{name}: {detail}")

    sent = 0
    received = 0

    handle = ServerHandle(options).start()
    client = ServeClient(port=handle.port)
    try:
        # -- phase: coalesce --------------------------------------------
        k = max(4, min(n_clients, 8))
        body = {"params": {"x": 7.0, "work": 0.6}}
        exec_before = client.metrics()["backend"]["executions"]
        barrier = threading.Barrier(k)

        def identical() -> ServeResponse:
            barrier.wait(timeout=10.0)
            return ServeClient(port=handle.port).task("demo", body)

        with ThreadPoolExecutor(max_workers=k) as pool:
            responses = [f.result()
                         for f in [pool.submit(identical)
                                   for _ in range(k)]]
        sent += k
        received += len(responses)
        _settle(client)
        exec_delta = (client.metrics()["backend"]["executions"]
                      - exec_before)
        answers = {json.dumps(r.body.get("result"), sort_keys=True)
                   for r in responses}
        leaders = sum(1 for r in responses if r.body.get("coalesced")
                      is False)
        coalesce_ok = (all(r.status == "ok" for r in responses)
                       and exec_delta == 1
                       and len(answers) == 1
                       and leaders == 1)
        phase("coalesce", coalesce_ok, clients=k,
              backend_executions=exec_delta,
              distinct_answers=len(answers), leaders=leaders)

        # -- phase: storm -----------------------------------------------
        exec_before = client.metrics()["backend"]["executions"]
        plans: List[Dict[str, Any]] = []
        for i in range(n_clients):
            roll = rng.random()
            if roll < 0.15:
                plans.append({"route": "demo", "body": {"bogus": i},
                              "expect": "bad-request"})
            elif roll < 0.25:
                plans.append({"route": f"missing-{i}", "body": {},
                              "expect": "not-found"})
            else:
                x = float(rng.randrange(n_unique))
                plans.append({"route": "demo",
                              "body": {"params": {"x": x, "work": 0.15}},
                              "expect": None})
        distinct_keys = {json.dumps(p["body"], sort_keys=True)
                         for p in plans if p["expect"] is None}

        def attack(plan: Dict[str, Any]) -> ServeResponse:
            return ServeClient(port=handle.port).task(plan["route"],
                                                      plan["body"])

        with ThreadPoolExecutor(max_workers=min(n_clients, 16)) as pool:
            responses = [f.result()
                         for f in [pool.submit(attack, p) for p in plans]]
        sent += len(plans)
        received += len(responses)
        _settle(client)
        exec_delta = (client.metrics()["backend"]["executions"]
                      - exec_before)
        all_terminal = all(_valid(r) for r in responses)
        expected_ok = all(
            r.status == p["expect"]
            for p, r in zip(plans, responses) if p["expect"] is not None)
        answers_ok = all(
            r.body["result"]["y"] == p["body"]["params"]["x"] ** 2
            for p, r in zip(plans, responses)
            if p["expect"] is None and r.status == "ok")
        storm_ok = (all_terminal and expected_ok and answers_ok
                    and exec_delta <= len(distinct_keys))
        phase("storm", storm_ok, clients=len(plans),
              distinct_keys=len(distinct_keys),
              backend_executions=exec_delta,
              statuses=_status_counts(responses))

        # -- phase: shed ------------------------------------------------
        flood = options.max_pending_interactive * 2
        barrier = threading.Barrier(flood)

        def novel(i: int) -> ServeResponse:
            barrier.wait(timeout=10.0)
            return ServeClient(port=handle.port).task(
                "demo", {"params": {"x": 1000.0 + i, "work": 0.5}})

        with ThreadPoolExecutor(max_workers=flood) as pool:
            responses = [f.result()
                         for f in [pool.submit(novel, i)
                                   for i in range(flood)]]
        sent += flood
        received += len(responses)
        _settle(client)
        shed = [r for r in responses if r.status == "shed"]
        shed_ok = (all(_valid(r) for r in responses)
                   and len(shed) > 0
                   and all(r.code == 429 and r.retry_after_s() is not None
                           and r.retry_after_s() >= 1.0 for r in shed))
        phase("shed", shed_ok, clients=flood, shed=len(shed),
              statuses=_status_counts(responses))

        # -- phase: breaker ---------------------------------------------
        healthy = {"params": {"index": 1}}
        warm = client.task("chaos", healthy)
        sent += 1
        received += 1
        trips_before = client.metrics()["breaker"]["trips"]
        poison_sent = 0
        for i in range(12):
            r = client.task(
                "chaos", {"params": {"index": 100 + i,
                                     "fault": "task_error"}})
            poison_sent += 1
            sent += 1
            received += 1
            if not _valid(r):
                break
            if client.metrics()["breaker"]["state"] == "open":
                break
        state_tripped = client.metrics()["breaker"]["state"]
        degraded = client.task("chaos", healthy)
        unavailable = client.task("chaos", {"params": {"index": 777}})
        sent += 2
        received += 2
        time.sleep(options.breaker_cooldown_s + 0.2)
        recovered = client.task("chaos", {"params": {"index": 888}})
        after = client.task("chaos", {"params": {"index": 999}})
        sent += 2
        received += 2
        _settle(client)
        metrics = client.metrics()
        breaker_ok = (
            warm.status == "ok"
            and state_tripped == "open"
            and metrics["breaker"]["trips"] > trips_before
            and degraded.status == "degraded"
            and degraded.body.get("degraded") is True
            and degraded.body.get("result") == warm.body.get("result")
            and unavailable.code == 503
            and unavailable.status == "unavailable"
            and recovered.status == "ok"
            and after.status == "ok"
            and metrics["breaker"]["state"] == "closed")
        phase(
            "breaker", breaker_ok, poison_requests=poison_sent,
            state_after_poison=state_tripped,
            degraded_status=degraded.status,
            novel_while_open=unavailable.status,
            state_after_recovery=metrics["breaker"]["state"],
            trips=metrics["breaker"]["trips"])

        # -- phase: drain -----------------------------------------------
        inflight_result: List[ServeResponse] = []

        def slow() -> None:
            inflight_result.append(ServeClient(port=handle.port).task(
                "demo", {"params": {"x": 55.0, "work": 1.0}}))

        worker = threading.Thread(target=slow)
        worker.start()
        sent += 1
        time.sleep(0.25)        # let the slow request get admitted
        handle.begin_drain()
        time.sleep(0.05)
        readyz = client.readyz()
        healthz = client.healthz()
        refused = client.task("demo", {"params": {"x": 2.0}})
        sent += 1
        received += 1
        worker.join(timeout=15.0)
        received += len(inflight_result)
        handle.join(timeout=15.0)
        drain_ok = (
            readyz.code == 503
            and healthz.code == 200
            and healthz.body.get("draining") is True
            and refused.status == "draining"
            and len(inflight_result) == 1
            and inflight_result[0].status == "ok"
            and not worker.is_alive())
        phase(
            "drain", drain_ok, readyz_during_drain=readyz.code,
            healthz_during_drain=healthz.code,
            new_request_during_drain=refused.status,
            inflight_status=(inflight_result[0].status
                             if inflight_result else "lost"))
    finally:
        handle.stop(hard=True)
        handle.join(timeout=15.0)

    phase("conservation", sent == received, requests_sent=sent,
          responses_received=received)
    return chaos_report("serve", records, len(PHASES), seed=seed,
                        workers=workers, n_clients=n_clients)


def _status_counts(responses: List[ServeResponse]) -> Dict[str, int]:
    return dict(sorted(Counter(r.status for r in responses).items()))
