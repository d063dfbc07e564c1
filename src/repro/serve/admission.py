"""Admission control: one bounded load budget with explicit shedding.

The server admits a request *group* (one coalesced execution) into a
bounded budget before scheduling it; when the budget is full the
request is shed with ``429`` and a ``Retry-After`` hint instead of
queueing unboundedly.  Admitted groups then wait for one of the
server's execution slots.

Single-threaded by design: every call happens on the server's event
loop, so plain integers are race-free.
"""

from __future__ import annotations

from typing import Dict, Optional


class AdmissionController:
    """Bounded admitted-group accounting."""

    def __init__(self, limit: int, retry_after_s: float = 1.0):
        self._limit = int(limit)
        self._pending = 0
        self._retry_after_s = float(retry_after_s)
        self.admitted = 0
        self.shed = 0
        self.peak = 0

    def try_admit(self) -> Optional[str]:
        """Admit one group, or return the shed reason.

        The caller owns exactly one :meth:`release` per successful
        admission (the serve layer does it in the group's ``finally``).
        """
        if self._pending >= self._limit:
            self.shed += 1
            return (f"admission budget full "
                    f"({self._pending}/{self._limit} in flight)")
        self._pending += 1
        self.admitted += 1
        self.peak = max(self.peak, self._pending)
        return None

    def release(self) -> None:
        if self._pending > 0:
            self._pending -= 1

    def retry_after_s(self) -> float:
        """Retry-After hint: the base backoff, scaled by saturation."""
        return self._retry_after_s * (1.0 + self._pending
                                      / max(self._limit, 1))

    def snapshot(self) -> Dict[str, int]:
        return {
            "limit": self._limit,
            "pending": self._pending,
            "admitted": self.admitted,
            "shed": self.shed,
            "peak": self.peak,
        }
