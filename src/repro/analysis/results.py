"""Solution containers returned by the analyses.

:class:`Solution` wraps a single solved MNA vector (an operating point or
one transient timepoint).  :class:`TransientResult` holds the full sampled
history of a transient run plus helpers used heavily by the
characterisation layer: windowed energy integration of source power,
threshold-crossing search, and peak/average measurements.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError


class Solution:
    """A solved MNA vector bound to its circuit.

    Provides node-voltage lookup by name or index; element helper methods
    (``current``, ``delivered_power``...) accept a ``Solution``.

    Every solution carries a numerical-trust annotation (see
    :mod:`repro.analysis.trust`): ``residual_norm`` is the KCL residual
    ``‖A·x − b‖∞`` of the final solve, ``cond_estimate`` the 1-norm
    condition estimate of its matrix, and ``refined`` whether the
    conditioning defenses (equilibration / iterative refinement) fired.
    NaN fields mean the producing path did not certify.
    """

    def __init__(self, circuit, x: np.ndarray, time: float = 0.0):
        self.circuit = circuit
        self.x = np.asarray(x, dtype=float)
        self.time = time
        self.residual_norm = float("nan")
        self.cond_estimate = float("nan")
        self.refined = False
        #: Full :class:`~repro.analysis.trust.Certificate`, or ``None``.
        self.cert = None

    def annotate_certificate(self, cert) -> "Solution":
        """Attach a solve :class:`~repro.analysis.trust.Certificate`."""
        if cert is not None:
            self.cert = cert
            self.residual_norm = float(cert.residual_norm)
            self.cond_estimate = float(cert.cond_estimate)
            self.refined = bool(cert.defended())
        return self

    def v(self, index: int) -> float:
        """Voltage of node ``index`` (0.0 for ground)."""
        if index < 0:
            return 0.0
        return float(self.x[index])

    def voltage(self, node: str) -> float:
        """Voltage of the node called ``node``."""
        return self.v(self.circuit.index_of(node))

    def branch_current(self, source_name: str) -> float:
        """Branch current of the named voltage source (SPICE sign)."""
        element = self.circuit[source_name]
        return element.branch_current(self)

    def voltages(self) -> Dict[str, float]:
        """All node voltages as ``{name: volts}``."""
        return {name: self.voltage(name) for name in self.circuit.node_names()}

    def __repr__(self) -> str:
        return f"<Solution t={self.time:g}s, {len(self.x)} unknowns>"


class TransientResult:
    """Sampled transient history.

    Attributes
    ----------
    time:
        1-D array of accepted timepoints (seconds), strictly increasing.
    states:
        2-D array, one row per timepoint, columns are the MNA unknowns.
    events:
        List of ``(time, element_name, event_string)`` recorded when an
        element's ``commit`` reported something (MTJ switching).
    recoveries:
        List of ``{"time", "rung", "trace"}`` dicts, one per timepoint the
        integrator salvaged through the recovery ladder instead of cutting
        the step (empty for a clean run).
    residual_norm / cond_estimate / refined:
        Numerical-trust aggregate over every *accepted* step solve (see
        :mod:`repro.analysis.trust`): worst KCL residual ``‖A·x − b‖∞``,
        worst 1-norm condition estimate, and the number of steps whose
        solve needed the conditioning defenses.  NaN/0 when the run was
        not certified.  Per-step detail lives in ``stats``
        (``certified_steps``, ``defended_steps``).
    """

    def __init__(self, circuit, time: np.ndarray, states: np.ndarray,
                 events: Optional[List[Tuple[float, str, str]]] = None,
                 stats: Optional[Dict[str, float]] = None,
                 recoveries: Optional[List[Dict]] = None):
        self.circuit = circuit
        self.time = np.asarray(time, dtype=float)
        self.states = np.asarray(states, dtype=float)
        if self.states.shape[0] != self.time.shape[0]:
            raise AnalysisError("time/state length mismatch")
        self.events = events or []
        self.stats = stats or {}
        self.recoveries = recoveries or []
        self.residual_norm = float("nan")
        self.cond_estimate = float("nan")
        #: Number of accepted steps whose solve needed defenses.
        self.refined = 0

    # -- accessors --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.time)

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of ``node`` across all timepoints."""
        index = self.circuit.index_of(node)
        if index < 0:
            return np.zeros_like(self.time)
        return self.states[:, index]

    def differential(self, p: str, n: str) -> np.ndarray:
        """V(p) - V(n) waveform."""
        return self.voltage(p) - self.voltage(n)

    def branch_current(self, source_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage source (SPICE sign)."""
        element = self.circuit[source_name]
        (k,) = element.branch_index
        return self.states[:, k]

    def solution_at_index(self, i: int) -> Solution:
        return Solution(self.circuit, self.states[i], float(self.time[i]))

    def final_solution(self) -> Solution:
        return self.solution_at_index(len(self.time) - 1)

    def sample(self, node: str, t: float) -> float:
        """Linearly interpolated node voltage at time ``t``."""
        return float(np.interp(t, self.time, self.voltage(node)))

    # -- power / energy ---------------------------------------------------
    def delivered_power(self, source_names: Sequence[str]) -> np.ndarray:
        """Total instantaneous power delivered by the named sources."""
        total = np.zeros_like(self.time)
        for name in source_names:
            element = self.circuit[name]
            p_idx, n_idx = element.node_index
            (k,) = element.branch_index
            v_p = self.states[:, p_idx] if p_idx >= 0 else 0.0
            v_n = self.states[:, n_idx] if n_idx >= 0 else 0.0
            total += -(v_p - v_n) * self.states[:, k]
        return total

    def energy(self, source_names: Sequence[str],
               t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Energy delivered by sources over ``[t0, t1]`` (trapezoidal).

        Defaults to the whole record.  Window edges falling between samples
        are handled by interpolated boundary points.
        """
        if len(self.time) < 2:
            return 0.0
        t0 = self.time[0] if t0 is None else t0
        t1 = self.time[-1] if t1 is None else t1
        if t1 <= t0:
            return 0.0
        power = self.delivered_power(source_names)
        return _windowed_trapezoid(self.time, power, t0, t1)

    def average_power(self, source_names: Sequence[str],
                      t0: Optional[float] = None,
                      t1: Optional[float] = None) -> float:
        """Mean delivered power of the sources over the window."""
        t0 = self.time[0] if t0 is None else t0
        t1 = self.time[-1] if t1 is None else t1
        if t1 <= t0:
            raise AnalysisError("average_power: empty window")
        return self.energy(source_names, t0, t1) / (t1 - t0)

    # -- measurements -------------------------------------------------------
    def crossing_time(self, node: str, threshold: float,
                      direction: str = "rise", after: float = 0.0) -> Optional[float]:
        """First time ``node`` crosses ``threshold`` in ``direction``.

        ``direction`` is ``"rise"`` or ``"fall"``.  Returns ``None`` if the
        crossing never happens after ``after``.
        """
        wave = self.voltage(node)
        start = bisect.bisect_left(self.time.tolist(), after)
        for i in range(max(start, 1), len(self.time)):
            v0, v1 = wave[i - 1], wave[i]
            if direction == "rise" and v0 < threshold <= v1:
                frac = (threshold - v0) / (v1 - v0)
                return float(self.time[i - 1] + frac * (self.time[i] - self.time[i - 1]))
            if direction == "fall" and v0 > threshold >= v1:
                frac = (v0 - threshold) / (v0 - v1)
                return float(self.time[i - 1] + frac * (self.time[i] - self.time[i - 1]))
        return None

    def peak(self, node: str, t0: Optional[float] = None,
             t1: Optional[float] = None) -> float:
        """Maximum absolute node voltage in the window."""
        mask = self._window_mask(t0, t1)
        wave = self.voltage(node)[mask]
        if wave.size == 0:
            raise AnalysisError("peak: empty window")
        return float(np.max(np.abs(wave)))

    def _window_mask(self, t0: Optional[float], t1: Optional[float]) -> np.ndarray:
        t0 = self.time[0] if t0 is None else t0
        t1 = self.time[-1] if t1 is None else t1
        return (self.time >= t0) & (self.time <= t1)

    def events_matching(self, needle: str) -> List[Tuple[float, str, str]]:
        """Events whose description contains ``needle``."""
        return [e for e in self.events if needle in e[2] or needle in e[1]]

    def __repr__(self) -> str:
        span = self.time[-1] - self.time[0] if len(self.time) else 0.0
        return (
            f"<TransientResult {len(self.time)} points over {span:g}s, "
            f"{len(self.events)} events>"
        )


def _windowed_trapezoid(time: np.ndarray, values: np.ndarray,
                        t0: float, t1: float) -> float:
    """Trapezoidal integral of sampled ``values`` over ``[t0, t1]``."""
    t0 = max(t0, float(time[0]))
    t1 = min(t1, float(time[-1]))
    if t1 <= t0:
        return 0.0
    inner = (time > t0) & (time < t1)
    ts = np.concatenate(([t0], time[inner], [t1]))
    vs = np.concatenate((
        [np.interp(t0, time, values)],
        values[inner],
        [np.interp(t1, time, values)],
    ))
    return float(np.trapezoid(vs, ts))
