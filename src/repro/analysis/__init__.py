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

from .. import _lazy_exports

_EXPORTS = {
    "BatchSolution": ".batch",
    "BatchSweepResult": ".sweep",
    "CircuitBatch": ".batch",
    "operating_point": ".dc",
    "OperatingPointOptions": ".dc",
    "dc_sweep": ".sweep",
    "SweepResult": ".sweep",
    "transient": ".transient",
    "TransientOptions": ".transient",
    "Solution": ".results",
    "TransientResult": ".results",
    "Certificate": ".trust",
    "TrustAccumulator": ".trust",
    "TrustOptions": ".trust",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
