"""Dynamic stamp-contract sanitizer: finite differences vs. stamps.

Every matrix entry an element's ``stamp()`` writes must lie in its
``stamp_pattern()``, the contract the RV201 structural-singularity
check and the compiled stamp plan both consume.  This module checks it
numerically, together with the stamped conductances being the Jacobian
of the element's currents.

The check rests on the residual trick the Newton solver relies on: a
correctly linearised stamp makes ``F(x) = A(x) @ x - b(x)`` the exact
device current balance, so ``dF/dx`` equals the analytic derivatives
the element wrote into ``A``.  Central finite differences of ``F``
therefore recover ``A`` to truncation error, and any mismatch is a
wrong hand-derived derivative — the bug class that degrades Newton to
a slow (or diverging) fixed-point iteration without ever raising.

Per element, :func:`check_element_stamp` verifies:

1. **declared sparsity** — every nonzero of the stamped ``A`` lies in
   ``stamp_pattern(mode)`` (ground rows/columns excluded);
2. **observed sparsity** — every numerically significant entry of the
   finite-difference Jacobian lies in the pattern too (catches current
   that *flows* through an undeclared coupling even if ``A`` is zero
   there at this iterate);
3. **Jacobian consistency** — ``|J_fd - A| <= atol + rtol * |A|``
   entrywise.

``tests/devices/test_stamp_sanitizer.py`` runs this over every shipped
device (FinFET n/p, MTJ P/AP, passives, sources, switches) at several
bias points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.mna import Context, Stamper

#: FD entries below this magnitude (siemens) are treated as zero when
#: checking observed sparsity against the declared pattern.
FD_SPARSITY_FLOOR = 1e-9


@dataclass
class StampCheckResult:
    """Outcome of sanitising one element at one bias point."""

    element: str
    mode: str
    #: Entries of the stamped matrix outside ``stamp_pattern()``.
    pattern_violations: List[Tuple[int, int]] = field(default_factory=list)
    #: FD-Jacobian entries outside ``stamp_pattern()``.
    fd_violations: List[Tuple[int, int]] = field(default_factory=list)
    #: Entries where the FD Jacobian disagrees with the stamped ``A``.
    jacobian_mismatches: List[Tuple[int, int, float, float]] = \
        field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the element honours its stamp contract here."""
        return not (self.pattern_violations or self.fd_violations
                    or self.jacobian_mismatches)

    def describe(self) -> str:
        """Human-readable failure summary (empty string when ok)."""
        parts: List[str] = []
        if self.pattern_violations:
            parts.append(f"stamped entries outside stamp_pattern(): "
                         f"{self.pattern_violations}")
        if self.fd_violations:
            parts.append(f"FD-Jacobian entries outside stamp_pattern(): "
                         f"{self.fd_violations}")
        for row, col, fd, analytic in self.jacobian_mismatches[:5]:
            parts.append(f"dF[{row}]/dx[{col}]: FD {fd:.6g} vs "
                         f"stamped {analytic:.6g}")
        if not parts:
            return ""
        return f"{self.element} ({self.mode}): " + "; ".join(parts)


def _stamp_alone(element, size: int, ctx: Context) -> Stamper:
    """A system containing only ``element``'s contribution."""
    stamper = Stamper(size)
    element.stamp(stamper, ctx)
    return stamper


def _declared(element, mode: str) -> set:
    """Non-ground entries of the element's declared pattern."""
    return {(row, col) for row, col in element.stamp_pattern(mode)
            if row >= 0 and col >= 0}


def check_element_stamp(
    element,
    size: int,
    x: np.ndarray,
    mode: str = "dc",
    dt: float = 0.0,
    method: str = "be",
    rtol: float = 1e-4,
    atol: float = 1e-8,
    step: float = 1e-7,
    make_ctx: Optional[Callable[[np.ndarray], Context]] = None,
) -> StampCheckResult:
    """Sanitise one element's stamp at the iterate ``x``.

    ``size`` is the full MNA system size (the element's node/branch
    indices must already be assigned, i.e. the circuit compiled).
    ``make_ctx`` overrides context construction for exotic cases; the
    default builds ``Context(mode, dt, method, x)``.
    """
    if make_ctx is None:
        def make_ctx(xv: np.ndarray) -> Context:
            return Context(mode=mode, dt=dt, method=method, x=xv)

    result = StampCheckResult(element=element.name, mode=mode)
    declared = _declared(element, mode)

    analytic = _stamp_alone(element, size, make_ctx(x)).A
    stamped = {(int(r), int(c))
               for r, c in zip(*np.nonzero(analytic))}
    result.pattern_violations = sorted(stamped - declared)

    jacobian = np.zeros_like(analytic)
    for col in range(size):
        h = step * max(1.0, abs(float(x[col])))
        x_plus = np.array(x, dtype=float)
        x_minus = np.array(x, dtype=float)
        x_plus[col] += h
        x_minus[col] -= h
        s_plus = _stamp_alone(element, size, make_ctx(x_plus))
        s_minus = _stamp_alone(element, size, make_ctx(x_minus))
        f_plus = s_plus.A @ x_plus - s_plus.b
        f_minus = s_minus.A @ x_minus - s_minus.b
        jacobian[:, col] = (f_plus - f_minus) / (2.0 * h)

    fd_nonzero = {(int(r), int(c))
                  for r, c in zip(*np.nonzero(
                      np.abs(jacobian) > FD_SPARSITY_FLOOR))}
    result.fd_violations = sorted(fd_nonzero - declared)

    error = np.abs(jacobian - analytic)
    bound = atol + rtol * np.abs(analytic)
    for row, col in zip(*np.nonzero(error > bound)):
        result.jacobian_mismatches.append(
            (int(row), int(col), float(jacobian[row, col]),
             float(analytic[row, col])))
    return result


def check_circuit_stamps(
    circuit,
    x: Optional[np.ndarray] = None,
    mode: str = "dc",
    dt: float = 0.0,
    method: str = "be",
    rtol: float = 1e-4,
    atol: float = 1e-8,
    names: Optional[Sequence[str]] = None,
) -> List[StampCheckResult]:
    """Sanitise every element of ``circuit`` (or just ``names``).

    The circuit is compiled first; ``x`` defaults to the zero vector.
    Returns one :class:`StampCheckResult` per element checked — callers
    assert ``all(r.ok for r in results)`` and print ``describe()`` on
    failure.
    """
    circuit.compile()
    if x is None:
        x = np.zeros(circuit.size)
    x = np.asarray(x, dtype=float)
    wanted = set(names) if names is not None else None
    results: List[StampCheckResult] = []
    for element in circuit.elements():
        if wanted is not None and element.name not in wanted:
            continue
        results.append(check_element_stamp(
            element, circuit.size, x, mode=mode, dt=dt, method=method,
            rtol=rtol, atol=atol))
    return results


def assert_stamps_clean(results: Sequence[StampCheckResult]) -> None:
    """Raise ``AssertionError`` listing every failed check."""
    failures = [r.describe() for r in results if not r.ok]
    if failures:
        raise AssertionError(
            "stamp-contract sanitizer failures:\n  "
            + "\n  ".join(failures))
