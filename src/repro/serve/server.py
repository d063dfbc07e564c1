"""The asyncio HTTP/JSON server: admission -> coalesce -> execute -> respond.

Dependency-free by construction (stdlib ``asyncio`` plus a minimal
handwritten HTTP/1.1 layer): one connection per request, JSON bodies,
``Connection: close`` everywhere.

The request path for ``POST /v1/<route>``:

1. **drain gate** — a draining server answers ``503 draining``.
2. **canonicalise** (:mod:`repro.serve.protocol`) — defaults filled,
   unknown fields rejected, content key computed.
3. **coalesce** (:mod:`repro.serve.coalesce`) — identical in-flight
   requests share one group; only a group *leader* passes admission.
4. **admission** (:mod:`repro.serve.admission`) — one bounded budget;
   full means ``429`` with ``Retry-After``.
5. **probe / breaker / execute** — cache first; breaker open means
   cache-only degraded mode; otherwise the group takes an execution
   slot and runs on the executor with the request deadline
   as its watchdog (:mod:`repro.serve.backend`).
6. **respond** — every waiter gets exactly one terminal status from
   :data:`repro.serve.protocol.STATUS_HTTP`; a waiter whose own
   deadline fires answers ``504`` without cancelling the shared
   execution.

``GET /healthz`` stays alive through a drain; ``GET /readyz`` flips to
503 the moment a drain begins — strictly before the listening socket
closes — so a load balancer stops routing before the server stops
answering.  ``GET /metrics`` exposes every subsystem's counters.

Blocking executor work runs on dedicated daemon threads (bounded by
the execution slots), so a hung inline task can never block process
exit after a hard stop.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from ..errors import ReproError
from ..exec.campaign import COMPLETED, QUARANTINED, SKIPPED
from .admission import AdmissionController
from .backend import ROUTE_FNS, ExecBackend
from .breaker import OPEN, CircuitBreaker
from .coalesce import Coalescer
from .protocol import (
    STATUS_HTTP,
    ProtocolError,
    ServeRequest,
    canonicalize,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Seconds allowed for reading one request head/body off the socket.
_READ_TIMEOUT_S = 10.0


@dataclass
class ServeOptions:
    """Policy knobs for one server instance.

    Defaults are sized for a small trusted deployment; the chaos
    harness and the unit tests shrink the budgets to force every
    shedding / breaker / drain path deterministically.
    """

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral, see ReproServer.port
    extra_routes: Tuple[str, ...] = ()  # "demo" / "chaos" test routes
    workers: int = 0                    # executor processes per execution
    max_retries: int = 1
    warmup_grace: float = 30.0
    cache_dir: Optional[Union[str, Path]] = "auto"
    forensics_dir: Optional[Union[str, Path]] = None
    default_deadline_s: float = 30.0
    min_deadline_s: float = 0.05
    max_deadline_s: float = 300.0
    interactive_slots: int = 4          # concurrent executions
    max_pending_interactive: int = 64   # admitted groups before shedding
    max_group_waiters: int = 64
    retry_after_s: float = 0.5
    breaker_window: int = 16
    breaker_min_samples: int = 4
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float = 5.0
    drain_grace: float = 10.0
    drain_settle_s: float = 0.05    # readyz-503 window before socket close
    memo_size: int = 512
    max_body_bytes: int = 1_000_000
    progress: Optional[Callable[[str], None]] = None


def _spawn_blocking(loop: asyncio.AbstractEventLoop,
                    fn: Callable, *args: Any) -> "asyncio.Future":
    """Run ``fn(*args)`` on a fresh daemon thread; await the result.

    Deliberately not a thread *pool*: concurrency is already bounded by
    the execution slots, and daemon threads guarantee a hard stop is
    never blocked by a hung inline task (a non-daemon pool thread
    would pin the process in its atexit join).
    """
    future = loop.create_future()

    def _resolve(result: Any, exc: Optional[BaseException]) -> None:
        if future.cancelled():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _runner() -> None:
        try:
            result = fn(*args)
        except BaseException as err:  # lint: skip=RV405 — ferried across the thread boundary and re-raised at the await site
            result, exc = None, err
        else:
            exc = None
        try:
            loop.call_soon_threadsafe(_resolve, result, exc)
        except RuntimeError:
            pass    # loop already closed (hard stop); nobody is waiting

    threading.Thread(target=_runner, daemon=True,
                     name="repro-serve-exec").start()
    return future


class ReproServer:
    """One serving instance; all public methods run on its event loop."""

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options or ServeOptions()
        opts = self.options
        routes = {"characterize": ROUTE_FNS["characterize"],
                  "nvff": ROUTE_FNS["nvff"]}
        for name in opts.extra_routes:
            if name not in ROUTE_FNS:
                raise ReproError(f"unknown extra route {name!r}")
            routes[name] = ROUTE_FNS[name]
        cache_dir = opts.cache_dir
        if cache_dir == "auto":
            from ..exec.envelope import cache_root
            cache_dir = cache_root()
        self.backend = ExecBackend(
            routes,
            workers=opts.workers,
            max_retries=opts.max_retries,
            warmup_grace=opts.warmup_grace,
            cache_dir=cache_dir,
            forensics_dir=opts.forensics_dir,
            memo_size=opts.memo_size,
            stop_level=lambda: self._drain_level,
        )
        self.admission = AdmissionController(
            opts.max_pending_interactive, retry_after_s=opts.retry_after_s)
        self.coalescer = Coalescer(max_waiters=opts.max_group_waiters)
        self.breaker = CircuitBreaker(
            window=opts.breaker_window,
            min_samples=opts.breaker_min_samples,
            threshold=opts.breaker_threshold,
            cooldown_s=opts.breaker_cooldown_s,
        )
        self.port: Optional[int] = None
        self._drain_level = 0
        self._ready = False
        self._active = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Future"] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._group_tasks: Set["asyncio.Task"] = set()
        self._started_at: Optional[float] = None
        self.responses: Dict[str, int] = {}
        self.requests_by_route: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._slots = asyncio.Semaphore(self.options.interactive_slots)
        self._server = await asyncio.start_server(
            self._handle, self.options.host, self.options.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = loop.time()
        self._ready = True
        self._progress(f"serving on http://{self.options.host}:{self.port} "
                       f"(routes: {', '.join(sorted(self.backend.routes))})")

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def run(self) -> None:
        await self.start()
        await self.wait_stopped()

    def begin_drain(self) -> int:
        """First call: graceful drain.  Second: hard stop.  Loop-only.

        Readiness flips *immediately* — before in-flight work finishes
        and strictly before the listening socket closes.
        """
        self._drain_level += 1
        self._ready = False
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())
            self._progress(
                f"drain requested: readyz now 503, in-flight work gets "
                f"{self.options.drain_grace:g}s (signal again to stop now)")
        return self._drain_level

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        # the settle window keeps the socket accepting (readyz already
        # answers 503) long enough for a load balancer probe to observe
        # not-ready *before* connections start being refused
        settle_deadline = loop.time() + self.options.drain_settle_s
        grace_deadline = loop.time() + max(self.options.drain_grace,
                                           self.options.drain_settle_s)
        while self._drain_level < 2 and loop.time() < grace_deadline:
            idle = (self._active == 0
                    and self.coalescer.inflight() == 0
                    and self.backend.snapshot()["inflight"] == 0)
            if idle and loop.time() >= settle_deadline:
                break
            await asyncio.sleep(0.02)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._progress("drained: socket closed")
        self._stopped.set()

    def _progress(self, message: str) -> None:
        if self.options.progress is not None:
            try:
                self.options.progress(message)
            except Exception:  # lint: skip=RV405 — a broken progress sink must not break serving
                pass

    # -- connection handling --------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT_S)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError("malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            hline = await asyncio.wait_for(reader.readline(),
                                           _READ_TIMEOUT_S)
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as err:
            raise ProtocolError(f"bad Content-Length: {err}") from err
        if length > self.options.max_body_bytes:
            raise ProtocolError(
                f"body of {length} bytes exceeds the "
                f"{self.options.max_body_bytes}-byte limit")
        body = b""
        if length > 0:
            body = await asyncio.wait_for(reader.readexactly(length),
                                          _READ_TIMEOUT_S)
        return method, target, headers, body

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._active += 1
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, target, _headers, raw = parsed
            await self._dispatch(method, target, raw, writer)
        except ProtocolError as err:
            await self._try_respond(writer, "bad-request",
                                    {"detail": str(err)})
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ConnectionError, ValueError):
            pass    # client gone or unparseable stream: nothing to answer
        except Exception as err:  # lint: skip=RV405 — last-resort handler: one broken connection must not kill the accept loop; detail goes to the client
            await self._try_respond(writer, "error", {"detail": repr(err)})
        finally:
            self._active -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, target: str, raw: bytes,
                        writer: asyncio.StreamWriter) -> None:
        if method == "GET":
            if target == "/healthz":
                body = {"alive": True, "draining": self._drain_level > 0}
                return await self._respond(writer, "ok", body)
            if target == "/readyz":
                if self._ready:
                    return await self._respond(writer, "ok",
                                               {"ready": True})
                reason = ("draining" if self._drain_level > 0
                          else "starting")
                return await self._respond(writer, "unavailable",
                                           {"ready": False,
                                            "reason": reason})
            if target == "/metrics":
                return await self._respond(writer, "ok", self.metrics())
            return await self._respond(writer, "not-found",
                                       {"target": target})
        if method != "POST":
            return await self._respond(writer, "method-not-allowed",
                                       {"method": method})
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ProtocolError(f"body is not valid JSON: {err}") from err
        if target.startswith("/v1/"):
            route = target[len("/v1/"):]
            if route in self.backend.routes:
                return await self._handle_task(route, body, writer)
        return await self._respond(writer, "not-found", {"target": target})

    # -- responses -------------------------------------------------------

    async def _respond(self, writer: asyncio.StreamWriter, status: str,
                       body: Dict[str, Any],
                       retry_after_s: Optional[float] = None) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1
        code = STATUS_HTTP.get(status, 500)
        payload = json.dumps({"status": status, **body}).encode()
        lines = [f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(payload)}",
                 "Connection: close"]
        if retry_after_s is not None:
            lines.append(f"Retry-After: {max(1, math.ceil(retry_after_s))}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await writer.drain()

    async def _try_respond(self, writer: asyncio.StreamWriter, status: str,
                           body: Dict[str, Any]) -> None:
        try:
            await self._respond(writer, status, body)
        except (ConnectionError, OSError):
            pass    # the client hung up first; the outcome still counted

    # -- interactive task requests --------------------------------------

    async def _handle_task(self, route: str, body: Any,
                           writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        self.requests_by_route[route] = (
            self.requests_by_route.get(route, 0) + 1)
        if self._drain_level > 0:
            return await self._respond(
                writer, "draining", {"detail": "server is draining"})
        try:
            req = canonicalize(
                route, body,
                default_deadline_s=self.options.default_deadline_s,
                min_deadline_s=self.options.min_deadline_s,
                max_deadline_s=self.options.max_deadline_s)
        except ProtocolError as err:
            return await self._respond(writer, "bad-request",
                                       {"detail": str(err)})
        deadline_at = loop.time() + req.deadline_s

        # join/admit/schedule happen in this same loop tick: an aborted
        # group can never have collected waiters
        group, created = self.coalescer.join(req.key, loop)
        if group is None:
            return await self._respond(
                writer, "shed",
                {"detail": "coalesce group is at its waiter cap",
                 "key": req.key},
                retry_after_s=self.admission.retry_after_s())
        if created:
            reason = self.admission.try_admit()
            if reason is not None:
                self.coalescer.abort(req.key)
                return await self._respond(
                    writer, "shed", {"detail": reason, "key": req.key},
                    retry_after_s=self.admission.retry_after_s())
            runner = loop.create_task(
                self._run_group(group, req, deadline_at))
            self._group_tasks.add(runner)
            runner.add_done_callback(self._group_tasks.discard)

        remaining = deadline_at - loop.time()
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(group.future), timeout=max(remaining, 0.001))
        except asyncio.TimeoutError:
            # this waiter's deadline; the shared execution (shielded)
            # continues for any waiter with more patience
            return await self._respond(
                writer, "deadline",
                {"key": req.key, "deadline_s": req.deadline_s})
        payload = dict(outcome)
        status = payload.pop("status")
        payload["key"] = req.key
        payload["coalesced"] = not created
        retry_after = (self.admission.retry_after_s()
                       if status in ("shed", "unavailable") else None)
        await self._respond(writer, status, payload,
                            retry_after_s=retry_after)

    async def _run_group(self, group, req: ServeRequest,
                         deadline_at: float) -> None:
        """Leader path: resolve the group with exactly one outcome."""
        outcome: Dict[str, Any] = {"status": "error",
                                   "detail": "group left unresolved"}
        try:
            hit = self.backend.probe(req)
            if self.breaker.state == OPEN:
                outcome = self._degraded_outcome(hit)
            elif hit is not None:
                outcome = {"status": "ok", "result": hit.payload,
                           "served_by": hit.source, "age_s": hit.age_s,
                           "degraded": False}
            else:
                outcome = await self._execute_group(req, deadline_at)
        except Exception as err:  # lint: skip=RV405 — the group future must resolve no matter what; detail rides the error response
            outcome = {"status": "error", "detail": repr(err)}
        finally:
            self.coalescer.finish(req.key, outcome)
            self.admission.release()

    def _degraded_outcome(self, hit) -> Dict[str, Any]:
        if hit is not None:
            return {"status": "degraded", "degraded": True,
                    "result": hit.payload, "served_by": hit.source,
                    "age_s": hit.age_s,
                    "detail": "circuit breaker open: cache-only mode"}
        return {"status": "unavailable",
                "detail": "circuit breaker open and no cached result",
                "breaker": self.breaker.snapshot()}

    async def _execute_group(self, req: ServeRequest,
                             deadline_at: float) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        remaining = deadline_at - loop.time()
        try:
            await asyncio.wait_for(self._slots.acquire(),
                                   timeout=max(remaining, 0.001))
        except asyncio.TimeoutError:
            return {"status": "deadline", "stage": "queued",
                    "deadline_s": req.deadline_s}
        try:
            if not self.breaker.allow_execution():
                # opened (or the half-open probe is taken) while queued
                return self._degraded_outcome(self.backend.probe(req))
            remaining = max(deadline_at - loop.time(), 0.05)
            try:
                summary = await _spawn_blocking(
                    loop, self.backend.execute, req, remaining)
            except Exception:
                self.breaker.record(False)
                raise
            if summary["status"] in (COMPLETED, SKIPPED):
                # a skip is a healthy backend saying "bad input":
                # deterministic analysis failures must not trip the breaker
                self.breaker.record(True)
            elif summary["status"] in (QUARANTINED, "error"):
                self.breaker.record(False)
            return self._wire_outcome(summary)
        finally:
            self._slots.release()

    @staticmethod
    def _wire_outcome(summary: Dict[str, Any]) -> Dict[str, Any]:
        status = summary["status"]
        common = {k: summary[k] for k in ("attempts", "elapsed_s")
                  if k in summary}
        if status == COMPLETED:
            return {"status": "ok", "result": summary.get("result"),
                    "served_by": "backend", "degraded": False, **common}
        if status == SKIPPED:
            return {"status": "skipped", "skip": summary.get("skip"),
                    **common}
        if status == QUARANTINED:
            return {"status": "failed",
                    "failures": summary.get("failures"), **common}
        if status == "interrupted":
            return {"status": "draining",
                    "detail": "execution interrupted by server stop"}
        return {"status": "error",
                "detail": summary.get("detail", "backend error")}

    # -- observability ---------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        from ..characterize.cache import STATS as cache_stats

        loop_time = None
        if self._started_at is not None:
            try:
                loop_time = (asyncio.get_running_loop().time()
                             - self._started_at)
            except RuntimeError:
                loop_time = None
        return {
            "server": {
                "ready": self._ready,
                "draining": self._drain_level > 0,
                "drain_level": self._drain_level,
                "active_connections": self._active,
                "uptime_s": loop_time,
                "routes": sorted(self.backend.routes),
            },
            "requests": dict(self.requests_by_route),
            "responses": dict(self.responses),
            "admission": self.admission.snapshot(),
            "coalesce": self.coalescer.snapshot(),
            "breaker": self.breaker.snapshot(),
            "backend": self.backend.snapshot(),
            "characterize_cache": cache_stats.snapshot(),
        }


class ServerHandle:
    """Run a :class:`ReproServer` on a dedicated event-loop thread.

    The in-process harness used by tests, the chaos mode and the
    benchmark: ``with ServerHandle(options) as handle`` yields a
    running server whose loop lives on a daemon thread; ``stop()``
    (or leaving the block) hard-drains it and joins the thread.
    """

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options or ServeOptions()
        self.server: Optional[ReproServer] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServerHandle":
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ReproError("server failed to start within 30s")
        if self.error is not None:
            raise ReproError(f"server failed to start: {self.error!r}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as err:  # lint: skip=RV405 — surfaced to the starting thread via self.error
            self.error = err
            self._ready.set()

    async def _amain(self) -> None:
        self.server = ReproServer(self.options)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self.server.wait_stopped()

    def _call_on_loop(self, fn: Callable[[], Any]) -> None:
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass    # loop already closed

    def begin_drain(self) -> None:
        """Request a graceful drain (one SIGTERM equivalent)."""
        self._call_on_loop(self.server.begin_drain)

    def stop(self, hard: bool = True) -> None:
        """Drain and stop; ``hard=True`` skips the grace period."""
        self.begin_drain()
        if hard:
            self.begin_drain()

    def join(self, timeout: float = 30.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(hard=True)
        self.join()
