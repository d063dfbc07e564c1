"""DC sweep analysis with warm-started continuation.

Sweeps the level of one independent source across a grid, solving the DC
operating point at each value starting from the previous solution.  This
is how the Fig. 3 leakage/store-current curves and the Fig. 4 power-switch
sizing curves are produced, and how static-noise-margin butterfly curves
are traced.

With ``on_error="skip"`` the sweep has partial-result semantics: a point
whose solve fails even after the recovery ladder is recorded as a
:class:`~repro.recovery.partial.SkipRecord` and rendered as NaN in every
array accessor, and the sweep continues — a 100-point sweep always comes
back with 100 annotated entries.

Given a :class:`~repro.analysis.batch.CircuitBatch`, :func:`dc_sweep`
moves every sample one point at a time, each warm-started from its own
previous point, and returns a :class:`BatchSweepResult`.  The failure
policy then applies per sample: a sample whose point fails even on the
scalar path stops (``"raise"``) or records a skip (``"skip"``) while
the other samples go on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError, ConvergenceError
from ..recovery.partial import SkipRecord
from .batch import BatchSolution, CircuitBatch
from .dc import OperatingPointOptions, batch_operating_point, operating_point
from .results import Solution


@dataclass
class SweepResult:
    """Result of :func:`dc_sweep`.

    Attributes
    ----------
    values:
        The swept source levels.
    solutions:
        One :class:`~repro.analysis.results.Solution` per level, or
        ``None`` for points skipped under ``on_error="skip"``.
    skips:
        :class:`~repro.recovery.partial.SkipRecord` entries for the
        skipped points (empty for a fully converged sweep).
    """

    source_name: str
    values: np.ndarray
    solutions: List[Optional[Solution]]
    skips: List[SkipRecord] = field(default_factory=list)

    def voltage(self, node: str) -> np.ndarray:
        """Node voltage across the sweep (NaN at skipped points)."""
        return self.measure(lambda s: s.voltage(node))

    def measure(self, func: Callable[[Solution], float]) -> np.ndarray:
        """Apply an arbitrary per-point measurement across the sweep.

        Skipped points yield NaN without calling ``func``.
        """
        return np.array([
            func(s) if s is not None else float("nan")
            for s in self.solutions
        ])

    def branch_current(self, source: str) -> np.ndarray:
        """Branch current of a voltage source across the sweep."""
        return self.measure(lambda s: s.branch_current(source))

    def residual_norms(self) -> np.ndarray:
        """Per-point solve certification ``‖A·x − b‖∞`` (amps; NaN at
        skipped points — see :mod:`repro.analysis.trust`)."""
        return self.measure(lambda s: s.residual_norm)

    def cond_estimates(self) -> np.ndarray:
        """Per-point 1-norm condition estimates (NaN at skipped points)."""
        return self.measure(lambda s: s.cond_estimate)

    @property
    def num_skipped(self) -> int:
        return len(self.skips)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class BatchSweepResult:
    """Result of :func:`dc_sweep` over a :class:`CircuitBatch`.

    Attributes
    ----------
    points:
        One :class:`~repro.analysis.batch.BatchSolution` per level.
    errors:
        ``{sample: error}`` of the samples whose sweep stopped: a failed
        point under ``on_error="raise"``, or an error that is not a
        :class:`~repro.errors.ConvergenceError` under ``"skip"``.
    skips:
        ``{sample: SkipRecord list}`` of the points skipped under
        ``on_error="skip"``.
    """

    source_name: str
    values: np.ndarray
    points: List[BatchSolution]
    errors: Dict[int, AnalysisError] = field(default_factory=dict)
    skips: Dict[int, List[SkipRecord]] = field(default_factory=dict)

    def voltage(self, node: str) -> np.ndarray:
        """Node voltage, one row per sample and one column per level
        (NaN where a sample has no solution)."""
        index = self.points[0].batch.template.index_of(node)
        if index < 0:
            return np.zeros((len(self.points[0]), len(self.points)))
        return np.stack([point.x[:, index] for point in self.points],
                        axis=1)

    def sample(self, index: int) -> SweepResult:
        """Sample ``index``'s sweep as the scalar :func:`dc_sweep` returns
        it; raises the error that stopped it."""
        if index in self.errors:
            raise self.errors[index]
        solutions = [None if index in point.errors else point.solution(index)
                     for point in self.points]
        return SweepResult(self.source_name, self.values, solutions,
                           list(self.skips.get(index, [])))


def dc_sweep(
    circuit,
    source_name: str,
    values: Sequence[float],
    ic: Optional[Dict[str, float]] = None,
    options: Optional[OperatingPointOptions] = None,
    on_error: str = "raise",
) -> SweepResult:
    """Sweep the DC level of ``source_name`` over ``values``.

    The first point may use ``ic`` to select a stability basin; subsequent
    points are warm-started from the previous solution, which keeps
    bistable cells on the same branch through the sweep (the behaviour
    needed for butterfly-curve tracing).

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    propagates the first :class:`~repro.errors.ConvergenceError` after the
    recovery ladder is exhausted; ``"skip"`` records the point as a
    :class:`~repro.recovery.partial.SkipRecord` in ``SweepResult.skips``
    and continues, warm-starting the next point from the last good
    solution.  A :class:`~repro.analysis.batch.CircuitBatch` gives a
    :class:`BatchSweepResult` (module docstring).
    """
    if on_error not in ("raise", "skip"):
        raise AnalysisError(
            f"dc_sweep: on_error must be 'raise' or 'skip', got {on_error!r}")
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise AnalysisError("dc_sweep: empty value list")
    batch = circuit if isinstance(circuit, CircuitBatch) else None
    element = (batch.template if batch else circuit)[source_name]
    if not hasattr(element, "set_level"):
        raise AnalysisError(f"{source_name} is not a sweepable source")

    original_dc = element.dc
    original_wave = element.waveform
    solutions: List[Optional[Solution]] = []
    skips: List[SkipRecord] = []
    try:
        if batch:
            return _sweep_batch(batch, element, source_name, values, ic,
                                options, on_error)
        x_prev = None
        for i, value in enumerate(values):
            element.set_level(float(value))
            try:
                sol = operating_point(
                    circuit,
                    ic=ic if i == 0 else None,
                    x0=x_prev,
                    options=options,
                )
            except ConvergenceError as err:
                if on_error == "raise":
                    raise
                solutions.append(None)
                skips.append(SkipRecord.from_error(
                    err, index=i, label=f"{source_name}={value:g}",
                    stage="dc_sweep", value=float(value)))
                continue
            solutions.append(sol)
            x_prev = sol.x
    finally:
        element.dc = original_dc
        element.waveform = original_wave
    return SweepResult(source_name, values, solutions, skips)


def _sweep_batch(batch: CircuitBatch, element, source_name: str,
                 values: np.ndarray, ic, options,
                 on_error: str) -> BatchSweepResult:
    """The batch branch of :func:`dc_sweep`."""
    result = BatchSweepResult(source_name, values, [])
    alive = np.ones(batch.size, dtype=bool)
    x_prev = np.zeros((batch.size, batch.template.size))
    for i, value in enumerate(values):
        element.set_level(float(value))
        point = batch_operating_point(batch, ic=ic if i == 0 else None,
                                      x0=x_prev, options=options,
                                      active=alive)
        for sample, err in point.errors.items():
            if on_error == "skip" and isinstance(err, ConvergenceError):
                result.skips.setdefault(sample, []).append(
                    SkipRecord.from_error(
                        err, index=i, label=f"{source_name}={value:g}",
                        stage="dc_sweep", value=float(value)))
            else:
                result.errors[sample] = err
                alive[sample] = False
        solved = ~np.isnan(point.x).any(axis=1)
        x_prev[solved] = point.x[solved]
        result.points.append(point)
    return result
