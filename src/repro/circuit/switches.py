"""Voltage-controlled switch with a smooth on/off transition.

Used by testbenches that need idealised gating (e.g. isolating a cell
terminal during characterisation) without the convergence hazards of a
discontinuous model.  The conductance interpolates log-linearly between
``g_off`` and ``g_on`` over the control-voltage window ``[v_off, v_on]``,
which keeps the Jacobian continuous for Newton-Raphson.
"""

from __future__ import annotations

import math

from ..errors import NetlistError
from .netlist import Element, conductance_pattern


class VoltageControlledSwitch(Element):
    """Switch between ``p`` and ``n`` controlled by V(cp) - V(cn).

    Parameters
    ----------
    r_on, r_off:
        On and off resistances (ohms).
    v_on, v_off:
        Control voltages at which the switch is fully on / fully off.
        ``v_on`` may be smaller than ``v_off`` for an inverted switch.
    """

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 r_on: float = 1.0, r_off: float = 1e12,
                 v_on: float = 1.0, v_off: float = 0.0):
        super().__init__(name, (p, n, cp, cn))
        if r_on <= 0 or r_off <= 0:
            raise NetlistError(f"{name}: switch resistances must be positive")
        if v_on == v_off:
            raise NetlistError(f"{name}: v_on and v_off must differ")
        self.g_on = 1.0 / r_on
        self.g_off = 1.0 / r_off
        self.v_on = float(v_on)
        self.v_off = float(v_off)

    def conductance_at(self, vc: float) -> float:
        """Smooth conductance as a function of the control voltage."""
        # Normalised position in the transition window, clamped to [0, 1].
        frac = (vc - self.v_off) / (self.v_on - self.v_off)
        if frac <= 0.0:
            return self.g_off
        if frac >= 1.0:
            return self.g_on
        # Smoothstep in log-conductance: C1-continuous at both ends.
        smooth = frac * frac * (3.0 - 2.0 * frac)
        log_g = math.log(self.g_off) + smooth * (math.log(self.g_on) - math.log(self.g_off))
        return math.exp(log_g)

    def _dconductance(self, vc: float) -> float:
        frac = (vc - self.v_off) / (self.v_on - self.v_off)
        if frac <= 0.0 or frac >= 1.0:
            return 0.0
        smooth_d = 6.0 * frac * (1.0 - frac) / (self.v_on - self.v_off)
        g = self.conductance_at(vc)
        return g * smooth_d * (math.log(self.g_on) - math.log(self.g_off))

    def stamp(self, stamper, ctx) -> None:
        p, n, cp, cn = self.node_index
        x = ctx.xlist
        vc = x[cp] - x[cn]
        v_pn = x[p] - x[n]
        g = self.conductance_at(vc)
        # I = g(vc) * v_pn, linearised in both v_pn and vc: the channel
        # conductance, the cross terms dI/dvc as a VCCS, and the residual
        # I0 - g*v_pn - gm*vc = -gm*vc as a p -> n current.
        gm = self._dconductance(vc) * v_pn
        correction = -gm * vc
        stamper.add(self, ctx, (g, -g, -g, g, gm, -gm, -gm, gm,
                                -correction, correction, 0.0, 0.0))

    def stamp_pattern(self, mode: str = "dc"):
        """Channel conductance block plus the control-voltage VCCS."""
        p, n, cp, cn = self.node_index
        pattern = conductance_pattern(p, n)
        pattern.extend((row, col) for row in (p, n) for col in (cp, cn))
        return pattern

    def current(self, solution) -> float:
        """Current p -> n at a solved point."""
        p, n, cp, cn = self.node_index
        vc = solution.v(cp) - solution.v(cn)
        return self.conductance_at(vc) * (solution.v(p) - solution.v(n))
