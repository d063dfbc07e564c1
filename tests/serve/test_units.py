"""Unit tests for admission, coalescing and the circuit breaker."""

import asyncio

from repro.serve.admission import AdmissionController
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.coalesce import Coalescer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestAdmission:
    def test_admits_until_limit_then_sheds(self):
        adm = AdmissionController(2)
        assert adm.try_admit() is None
        assert adm.try_admit() is None
        reason = adm.try_admit()
        assert reason is not None and "budget full" in reason
        assert adm.snapshot()["shed"] == 1

    def test_release_reopens_budget(self):
        adm = AdmissionController(1)
        assert adm.try_admit() is None
        assert adm.try_admit() is not None
        adm.release()
        assert adm.try_admit() is None

    def test_retry_after_scales_with_saturation(self):
        adm = AdmissionController(2, retry_after_s=1.0)
        empty = adm.retry_after_s()
        adm.try_admit()
        adm.try_admit()
        assert adm.retry_after_s() > empty

    def test_release_never_goes_negative(self):
        adm = AdmissionController(1)
        adm.release()
        assert adm.snapshot()["pending"] == 0


class TestCoalescer:
    def test_first_join_creates_later_joins_attach(self):
        loop = asyncio.new_event_loop()
        try:
            co = Coalescer()
            g1, created1 = co.join("k", loop)
            g2, created2 = co.join("k", loop)
            assert created1 and not created2
            assert g1 is g2
            assert g1.waiters == 2
        finally:
            loop.close()

    def test_waiter_cap_sheds(self):
        loop = asyncio.new_event_loop()
        try:
            co = Coalescer(max_waiters=2)
            co.join("k", loop)
            co.join("k", loop)
            group, created = co.join("k", loop)
            assert group is None and not created
            assert co.snapshot()["rejected"] == 1
        finally:
            loop.close()

    def test_finish_resolves_every_waiter(self):
        loop = asyncio.new_event_loop()
        try:
            co = Coalescer()
            group, _ = co.join("k", loop)
            co.join("k", loop)
            co.finish("k", {"status": "ok"})
            assert group.future.result() == {"status": "ok"}
            assert co.inflight() == 0
            # a later identical request starts a fresh group
            _, created = co.join("k", loop)
            assert created
        finally:
            loop.close()

    def test_abort_drops_unadmitted_group(self):
        loop = asyncio.new_event_loop()
        try:
            co = Coalescer()
            co.join("k", loop)
            co.abort("k")
            assert co.inflight() == 0
        finally:
            loop.close()


class TestBreaker:
    def _breaker(self, **kw):
        clock = FakeClock()
        defaults = dict(window=8, min_samples=4, threshold=0.5,
                        cooldown_s=10.0, clock=clock)
        defaults.update(kw)
        return CircuitBreaker(**defaults), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self._breaker()
        assert breaker.state == CLOSED
        assert breaker.allow_execution()

    def test_trips_at_threshold_not_before(self):
        breaker, _ = self._breaker()
        breaker.record(False)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED    # below min_samples
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow_execution()

    def test_successes_hold_the_rate_down(self):
        breaker, _ = self._breaker()
        for _ in range(6):
            breaker.record(True)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED    # 2/8 < 0.5

    def test_half_open_single_probe_then_close(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record(False)
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow_execution()      # the one probe
        assert not breaker.allow_execution()  # everyone else waits
        breaker.record(True)
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0  # window cleared

    def test_failed_probe_reopens_for_another_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record(False)
        clock.advance(10.0)
        assert breaker.allow_execution()
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.advance(9.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_snapshot_shape(self):
        breaker, _ = self._breaker()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["trips"] == 0
        assert snap["failure_rate"] == 0.0
