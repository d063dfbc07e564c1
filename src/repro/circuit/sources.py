"""Independent sources.

:class:`VoltageSource` is the workhorse: every bias rail in the NV-SRAM
testbenches (VDD, word lines, bit lines, SR/CTRL lines, power-switch gate)
is a voltage source driven by a :class:`~repro.circuit.waveforms.Waveform`.
Its MNA branch current is what the energy bookkeeping integrates.
"""

from __future__ import annotations

from typing import List, Optional

from .netlist import Element
from .waveforms import Waveform


class VoltageSource(Element):
    """Ideal voltage source from ``p`` (+) to ``n`` (-).

    Parameters
    ----------
    name, p, n:
        Element name and node names.
    dc:
        DC level used when no waveform is given (and as the t=0 value).
    waveform:
        Optional time-domain drive; overrides ``dc`` during transients and
        provides the t=0 value for the pre-transient operating point.

    Sign convention (SPICE): the branch current is the current flowing from
    the + terminal *through the source* to the - terminal, so a supply that
    is delivering power reports a negative branch current.  Use
    :meth:`delivered_power` to avoid sign mistakes.
    """

    branch_count = 1
    is_linear = True

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0,
                 waveform: Optional[Waveform] = None):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.waveform = waveform

    def level(self, t: float) -> float:
        """Source voltage at time ``t``."""
        if self.waveform is not None:
            return self.waveform.value(t)
        return self.dc

    def set_level(self, value: float) -> None:
        """Replace the drive with a DC level (used by sweep analyses)."""
        self.dc = float(value)
        self.waveform = None

    def set_waveform(self, waveform: Waveform) -> None:
        self.waveform = waveform

    def stamp(self, stamper, ctx) -> None:
        level = ctx.source_scale * self.level(ctx.time)
        stamper.add(self, ctx, (1.0, -1.0, 1.0, -1.0, 0.0, 0.0, level))

    def stamp_pattern(self, mode: str = "dc"):
        """Branch row/column couplings of the ideal source."""
        p, n = self.node_index
        (k,) = self.branch_index
        return [(p, k), (n, k), (k, p), (k, n)]

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        if self.waveform is None:
            return []
        return self.waveform.breakpoints(t0, t1)

    def branch_current(self, solution) -> float:
        """Current p -> n through the source (SPICE sign)."""
        (k,) = self.branch_index
        return solution.x[k]

    def delivered_power(self, solution) -> float:
        """Instantaneous power the source delivers to the circuit (watts)."""
        p, n = self.node_index
        v = solution.v(p) - solution.v(n)
        return -v * self.branch_current(solution)


class CurrentSource(Element):
    """Ideal current source driving ``value`` amps from ``p`` to ``n``.

    The current flows out of ``p``, through the source, into ``n`` — i.e.
    it *extracts* current from node ``p`` and injects it into node ``n``,
    matching the SPICE ``I`` element.
    """

    is_linear = True

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0,
                 waveform: Optional[Waveform] = None):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.waveform = waveform

    def level(self, t: float) -> float:
        if self.waveform is not None:
            return self.waveform.value(t)
        return self.dc

    def set_level(self, value: float) -> None:
        self.dc = float(value)
        self.waveform = None

    def stamp(self, stamper, ctx) -> None:
        i = ctx.source_scale * self.level(ctx.time)
        stamper.add(self, ctx, (-i, i))

    def stamp_pattern(self, mode: str = "dc"):
        """RHS-only element: no matrix entries in any mode."""
        return []

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        if self.waveform is None:
            return []
        return self.waveform.breakpoints(t0, t1)
