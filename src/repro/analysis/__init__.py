"""Circuit analyses: DC operating point, DC sweeps and transient.

The public entry points are:

* :func:`repro.analysis.dc.operating_point`
* :func:`repro.analysis.sweep.dc_sweep`
* :func:`repro.analysis.transient.transient`

``operating_point`` and ``dc_sweep`` also take a
:class:`~repro.analysis.batch.CircuitBatch`: many samples of one
topology, solved in lockstep (:mod:`repro.analysis.batch`).

All analyses build a dense modified-nodal-analysis (MNA) system
(:mod:`repro.analysis.mna`) and solve the nonlinear equations with the
damped Newton-Raphson iteration in :mod:`repro.analysis.solver`.  Every
accepted solve is certified by the numerical-trust layer
(:mod:`repro.analysis.trust`): results carry ``residual_norm`` /
``cond_estimate`` / ``refined`` annotations.
"""

from .batch import BatchSolution, CircuitBatch
from .dc import operating_point, OperatingPointOptions
from .sweep import BatchSweepResult, dc_sweep, SweepResult
from .transient import transient, TransientOptions
from .results import Solution, TransientResult
from .trust import Certificate, TrustAccumulator, TrustOptions

__all__ = [
    "BatchSolution",
    "BatchSweepResult",
    "CircuitBatch",
    "operating_point",
    "OperatingPointOptions",
    "dc_sweep",
    "SweepResult",
    "transient",
    "TransientOptions",
    "Solution",
    "TransientResult",
    "Certificate",
    "TrustAccumulator",
    "TrustOptions",
]
