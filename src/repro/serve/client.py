"""Minimal blocking client for the serve API (stdlib ``http.client``).

Used by the chaos harness, the serve benchmark and the tests; it is
also the reference for how to talk to the server from anywhere else.
One connection per call (the server closes after each response), JSON
in / JSON out.

``ServeResponse`` keeps the HTTP code and the decoded body together so
callers can assert on either without re-parsing.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ReproError


@dataclass
class ServeResponse:
    """One terminal HTTP response from the server."""

    code: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.body.get("status", "")

    @property
    def ok(self) -> bool:
        return self.code == 200

    def retry_after_s(self) -> Optional[float]:
        value = self.headers.get("retry-after")
        return None if value is None else float(value)


class ServeClient:
    """Blocking JSON client bound to one server address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- plumbing --------------------------------------------------------

    def _request(self, method: str, target: str,
                 body: Optional[Dict[str, Any]] = None) -> ServeResponse:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, target, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ReproError(
                    f"server sent non-JSON body for {target}: {err}") from err
            return ServeResponse(
                code=resp.status, body=decoded,
                headers={k.lower(): v for k, v in resp.getheaders()})
        finally:
            conn.close()

    # -- health / observability -----------------------------------------

    def healthz(self) -> ServeResponse:
        return self._request("GET", "/healthz")

    def readyz(self) -> ServeResponse:
        return self._request("GET", "/readyz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics").body

    # -- task routes -----------------------------------------------------

    def task(self, route: str,
             body: Optional[Dict[str, Any]] = None) -> ServeResponse:
        """POST one request to ``/v1/<route>`` and return the response."""
        return self._request("POST", f"/v1/{route}", body or {})

    def characterize(self, **body: Any) -> ServeResponse:
        return self.task("characterize", body)

    def nvff(self, **body: Any) -> ServeResponse:
        return self.task("nvff", body)
