"""DC operating-point analysis with gmin- and source-stepping homotopy.

Bistable circuits (SRAM cells!) have multiple valid operating points, so
the analysis accepts an ``ic`` mapping that pins chosen nodes near target
voltages during a first solve (via stiff Norton clamps), then releases the
clamps and re-solves starting from the pinned solution.  The final answer
therefore satisfies the *unclamped* circuit equations but sits in the
requested stability basin — the same trick as SPICE ``.NODESET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..recovery.ladder import LadderResult, RecoveryOptions, recover_dc
from .mna import Context, Stamper
from .results import Solution
from .solver import NewtonOptions

#: Conductance of the initial-condition clamps (siemens).  Device currents
#: are micro-amps, so 1 kS pins nodes to within nanovolts of the target.
_CLAMP_CONDUCTANCE = 1e3


@dataclass
class OperatingPointOptions:
    """Options for :func:`operating_point`."""

    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: Recovery-ladder configuration, gmin- and source-stepping included.
    recovery: RecoveryOptions = field(default_factory=RecoveryOptions)


def operating_point(
    circuit,
    time: float = 0.0,
    ic: Optional[Dict[str, float]] = None,
    x0: Optional[np.ndarray] = None,
    options: Optional[OperatingPointOptions] = None,
    release_clamps: bool = True,
) -> Solution:
    """Solve the DC operating point of ``circuit`` at ``time``.

    Parameters
    ----------
    time:
        Timepoint at which waveform-driven sources are evaluated (bias
        rails are usually constant, but benchmark testbenches reuse their
        waveforms for the pre-transient solve at t=0).
    ic:
        Optional ``{node_name: volts}`` mapping pinning nodes during the
        solve.
    x0:
        Optional warm-start vector (used by sweeps).
    release_clamps:
        With the default ``True`` the pins behave like SPICE ``.NODESET``:
        after a clamped pre-solve the clamps are removed and the circuit
        is re-solved, so the answer is a *true* operating point in the
        selected stability basin.  ``False`` gives SPICE ``.IC``
        semantics — the pinned values are held in the returned solution —
        which is what a transient start-point wants.

    Returns
    -------
    Solution
        The converged operating point, annotated with ``recovery_rung``
        (``None`` for a clean solve) and ``recovery_trace``.
    """
    opts = options or OperatingPointOptions()
    circuit.compile()
    guess = np.zeros(circuit.size) if x0 is None else np.array(x0, dtype=float)
    recovery = opts.recovery

    clamps = _resolve_clamps(circuit, ic)
    if clamps:
        # With release_clamps the clamped pre-solve is scaffolding — its
        # certificate is superseded by the released solve's — so skip
        # the condition estimate there (the residual check keeps the
        # conditioning defenses armed either way).
        scaffold = opts.newton
        if release_clamps and scaffold.trust.condest:
            scaffold = replace(opts.newton,
                               trust=replace(opts.newton.trust,
                                             condest=False))
        clamped = recover_dc(circuit, time, guess, scaffold,
                             extra_stamps=_make_clamp_stamper(clamps),
                             options=recovery)
        if not release_clamps:
            return _annotate(Solution(circuit, clamped.x, time), clamped)
        # Release the clamps; warm-start from the clamped solution.  The
        # solve must stay in the selected basin because the clamped point
        # is (near) a true solution there — so the source-ramp rung (which
        # restarts from zero and may land a bistable cell on the other
        # branch) is disabled for the release solve.
        released = recover_dc(circuit, time, clamped.x, opts.newton,
                              options=replace(recovery, source_ramp=False))
        return _annotate(Solution(circuit, released.x, time),
                         clamped, released)

    result = recover_dc(circuit, time, guess, opts.newton, options=recovery)
    return _annotate(Solution(circuit, result.x, time), result)


def _annotate(sol: Solution, *ladders: LadderResult) -> Solution:
    """Attach recovery forensics from the ladder run(s) to a solution."""
    rungs = [lad.rung for lad in ladders if lad.rung is not None]
    sol.recovery_rung = rungs[-1] if rungs else None
    sol.recovery_trace = [a.to_dict() for lad in ladders for a in lad.trace]
    # The last ladder performed the final (authoritative) solve; its
    # certificate is the solution's numerical-trust annotation.
    return sol.annotate_certificate(ladders[-1].cert if ladders else None)


def _resolve_clamps(circuit, ic: Optional[Dict[str, float]]):
    if not ic:
        return []
    return [(circuit.index_of(node), float(v)) for node, v in ic.items()]


def _make_clamp_stamper(clamps):
    def extra(stamper: Stamper, ctx: Context) -> None:
        for node, target in clamps:
            if node < 0:
                continue
            stamper.conductance(node, -1, _CLAMP_CONDUCTANCE)
            # Norton source driving the node toward the target.
            stamper.current(-1, node, _CLAMP_CONDUCTANCE * target * ctx.source_scale)

    return extra
