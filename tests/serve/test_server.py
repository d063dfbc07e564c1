"""End-to-end serving tests against an in-process server.

One module-scoped server (inline workers, demo + chaos test routes)
backs the cheap request/response tests; the shedding and breaker tests
boot dedicated servers with budgets shrunk to force those paths.
"""

import threading

import pytest

from repro.serve import ServeClient, ServeOptions, ServerHandle


@pytest.fixture(scope="module")
def handle(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("serve")
    options = ServeOptions(
        extra_routes=("demo", "chaos"),
        cache_dir=scratch / "cache",
        drain_grace=3.0,
        drain_settle_s=0.0,
    )
    with ServerHandle(options) as h:
        yield h


@pytest.fixture()
def client(handle):
    return ServeClient(port=handle.port)


class TestHealth:
    def test_healthz(self, client):
        resp = client.healthz()
        assert resp.code == 200
        assert resp.body["alive"] is True
        assert resp.body["draining"] is False

    def test_readyz(self, client):
        resp = client.readyz()
        assert resp.code == 200
        assert resp.body["ready"] is True

    def test_metrics_shape(self, client):
        m = client.metrics()
        for section in ("server", "admission", "coalesce", "breaker",
                        "backend", "characterize_cache"):
            assert section in m, section
        assert m["breaker"]["state"] == "closed"


class TestTaskRequests:
    def test_ok_roundtrip(self, client):
        resp = client.task("demo", {"params": {"x": 5.0}})
        assert resp.code == 200
        assert resp.status == "ok"
        assert resp.body["result"] == {"x": 5.0, "y": 25.0}
        assert resp.body["served_by"] == "backend"
        assert resp.body["degraded"] is False
        assert resp.body["coalesced"] is False

    def test_repeat_is_served_from_memo_with_age(self, client):
        body = {"params": {"x": 6.0}}
        client.task("demo", body)
        resp = client.task("demo", body)
        assert resp.status == "ok"
        assert resp.body["served_by"] == "memo"
        assert resp.body["age_s"] >= 0.0

    def test_unknown_field_is_400(self, client):
        resp = client.task("demo", {"bogus": 1})
        assert resp.code == 400
        assert resp.status == "bad-request"
        assert "bogus" in resp.body["detail"]

    def test_request_class_field_is_400(self, client):
        """Admission has one budget, so a body naming a request class
        is rejected like any other unknown field."""
        resp = client.task("demo", {"params": {"x": 1.0},
                                    "class": "interactive"})
        assert resp.code == 400
        assert resp.status == "bad-request"
        assert "class" in resp.body["detail"]

    def test_unknown_route_is_404(self, client):
        assert client.task("tarnish", {}).code == 404

    def test_wrong_method_is_405(self, client):
        assert client._request("PUT", "/v1/demo", {}).code == 405

    def test_unparseable_body_is_400(self, client, handle):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/demo", body="{nope",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_deterministic_skip_is_422(self, client):
        resp = client.task("chaos",
                           {"params": {"index": 3, "fault": "conv_skip"}})
        assert resp.code == 422
        assert resp.status == "skipped"
        assert resp.body["skip"]["error_type"] == "ConvergenceError"

    def test_poison_task_is_502_failed(self, client):
        resp = client.task("chaos",
                           {"params": {"index": 4, "fault": "task_error"}})
        assert resp.code == 502
        assert resp.status == "failed"
        assert resp.body["failures"]

    def test_deadline_is_504(self, client):
        resp = client.task(
            "demo", {"params": {"x": 8.0, "work": 5.0},
                     "deadline_s": 0.3})
        assert resp.code == 504
        assert resp.status == "deadline"

    def test_concurrent_identical_requests_coalesce(self, client, handle):
        before = client.metrics()["backend"]["executions"]
        body = {"params": {"x": 12.0, "work": 0.4}}
        barrier = threading.Barrier(4)
        results = []

        def hit():
            barrier.wait(timeout=5.0)
            results.append(ServeClient(port=handle.port).task("demo", body))

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(results) == 4
        assert all(r.status == "ok" for r in results)
        assert sum(1 for r in results if r.body["coalesced"]) == 3
        after = client.metrics()["backend"]["executions"]
        assert after - before == 1


def test_campaign_route_is_gone(client):
    """``POST /v1/campaign`` answers 404: the server takes single
    requests on its task routes, never a named campaign."""
    resp = client.task("campaign", {"name": "demo", "stream": False})
    assert resp.code == 404
    assert resp.status == "not-found"


class TestShedding:
    def test_admission_overflow_is_429_with_retry_after(self, tmp_path):
        options = ServeOptions(
            extra_routes=("demo",),
            cache_dir=tmp_path / "cache",
            interactive_slots=1,
            max_pending_interactive=1,
            drain_settle_s=0.0,
        )
        with ServerHandle(options) as h:
            slow = []

            def occupy():
                slow.append(ServeClient(port=h.port).task(
                    "demo", {"params": {"x": 1.0, "work": 1.0}}))

            t = threading.Thread(target=occupy)
            t.start()
            try:
                deadline = ServeClient(port=h.port)
                # wait until the slow request holds the only budget slot
                for _ in range(100):
                    if deadline.metrics()["admission"]["pending"] == 1:
                        break
                    import time
                    time.sleep(0.01)
                resp = deadline.task("demo", {"params": {"x": 2.0}})
                assert resp.code == 429
                assert resp.status == "shed"
                assert resp.retry_after_s() >= 1.0
            finally:
                t.join(timeout=10.0)
            assert slow and slow[0].status == "ok"


class TestBreaker:
    def test_trip_degrade_recover(self, tmp_path):
        options = ServeOptions(
            extra_routes=("chaos",),
            cache_dir=tmp_path / "cache",
            breaker_window=4,
            breaker_min_samples=3,
            breaker_threshold=0.6,
            breaker_cooldown_s=0.4,
            drain_settle_s=0.0,
        )
        with ServerHandle(options) as h:
            client = ServeClient(port=h.port)
            healthy = {"params": {"index": 1}}
            warm = client.task("chaos", healthy)
            assert warm.status == "ok"

            for i in range(2):
                resp = client.task(
                    "chaos", {"params": {"index": 50 + i,
                                         "fault": "task_error"}})
                assert resp.status == "failed"
            assert client.metrics()["breaker"]["state"] == "open"

            degraded = client.task("chaos", healthy)
            assert degraded.code == 200
            assert degraded.status == "degraded"
            assert degraded.body["degraded"] is True
            assert degraded.body["result"] == warm.body["result"]

            novel = client.task("chaos", {"params": {"index": 99}})
            assert novel.code == 503
            assert novel.status == "unavailable"

            import time
            time.sleep(0.6)
            probe = client.task("chaos", {"params": {"index": 100}})
            assert probe.status == "ok"
            assert client.metrics()["breaker"]["state"] == "closed"
