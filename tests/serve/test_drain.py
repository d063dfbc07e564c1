"""Drain semantics: readiness ordering, in-flight completion, and real
SIGTERM handling (stress)."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient, ServeOptions, ServerHandle


def _options(scratch, **overrides):
    base = dict(extra_routes=("demo",), cache_dir=scratch / "cache",
                drain_grace=5.0, drain_settle_s=0.3)
    base.update(overrides)
    return ServeOptions(**base)


class TestGracefulDrain:
    def test_readyz_flips_before_the_socket_closes(self, tmp_path):
        handle = ServerHandle(_options(tmp_path)).start()
        client = ServeClient(port=handle.port)
        assert client.readyz().code == 200
        handle.begin_drain()
        time.sleep(0.05)
        # inside the settle window: the socket still answers, but the
        # server already reports not-ready (and health stays alive)
        readyz = client.readyz()
        healthz = client.healthz()
        assert readyz.code == 503
        assert readyz.body["reason"] == "draining"
        assert healthz.code == 200
        assert healthz.body["draining"] is True
        handle.join(timeout=10.0)
        # only after the drain completes do connections get refused
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", handle.port),
                                     timeout=2.0)

    def test_inflight_completes_while_new_work_is_refused(self, tmp_path):
        handle = ServerHandle(_options(tmp_path)).start()
        results = []

        def slow():
            results.append(ServeClient(port=handle.port).task(
                "demo", {"params": {"x": 9.0, "work": 0.8}}))

        worker = threading.Thread(target=slow)
        worker.start()
        time.sleep(0.2)     # let the slow request get admitted
        handle.begin_drain()
        time.sleep(0.05)
        refused = ServeClient(port=handle.port).task(
            "demo", {"params": {"x": 1.0}})
        assert refused.code == 503
        assert refused.status == "draining"
        worker.join(timeout=10.0)
        handle.join(timeout=10.0)
        assert results and results[0].status == "ok"
        assert results[0].body["result"]["y"] == 81.0


@pytest.mark.stress
class TestSigterm:
    def _free_port(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def test_sigterm_drains_a_served_campaign_cleanly(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        port = self._free_port()
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port), "--workers", "0",
             "--extra-routes", "demo",
             "--cache-dir", str(tmp_path / "cache"),
             "--drain-grace", "10"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            client = ServeClient(port=port)
            for _ in range(100):
                try:
                    if client.readyz().code == 200:
                        break
                except OSError:
                    time.sleep(0.1)
            else:
                pytest.fail("server never became ready")

            responses = []

            def slow():
                responses.append(client.task(
                    "demo", {"params": {"x": 3.0, "work": 1.5}}))

            worker = threading.Thread(target=slow)
            worker.start()
            for _ in range(100):
                if client.metrics()["backend"]["inflight"] == 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("the slow task never started")
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=30.0)
            assert proc.wait(timeout=30.0) == 0

            # the in-flight task finished inside the drain grace
            (resp,) = responses
            assert resp.status == "ok"
            assert resp.body["result"] == {"x": 3.0, "y": 9.0}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
