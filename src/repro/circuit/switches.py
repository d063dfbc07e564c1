"""Voltage-controlled switch with a smooth on/off transition.

Used by testbenches that need idealised gating (e.g. isolating a cell
terminal during characterisation) without the convergence hazards of a
discontinuous model.  The conductance interpolates log-linearly between
``g_off`` and ``g_on`` over the control-voltage window ``[v_off, v_on]``,
which keeps the Jacobian continuous for Newton-Raphson.
"""

from __future__ import annotations

import math

import numpy as np

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
        # The log-conductance window, shared with batch_card.
        self._log_off = math.log(self.g_off)
        self._log_span = math.log(self.g_on) - self._log_off

    def _conductance(self, vc: float):
        """``(g, dg/dvc)`` at the control voltage ``vc``."""
        # Normalised position in the transition window, clamped to [0, 1].
        width = self.v_on - self.v_off
        frac = (vc - self.v_off) / width
        if frac <= 0.0:
            return self.g_off, 0.0
        if frac >= 1.0:
            return self.g_on, 0.0
        # Smoothstep in log-conductance: C1-continuous at both ends.
        smooth = frac * frac * (3.0 - 2.0 * frac)
        g = math.exp(self._log_off + smooth * self._log_span)
        smooth_d = 6.0 * frac * (1.0 - frac) / width
        return g, g * smooth_d * self._log_span

    def conductance_at(self, vc: float) -> float:
        """Smooth conductance as a function of the control voltage."""
        return self._conductance(vc)[0]

    def _dconductance(self, vc: float) -> float:
        return self._conductance(vc)[1]

    def stamp(self, stamper, ctx) -> None:
        p, n, cp, cn = self.node_index
        x = ctx.xlist
        vc = x[cp] - x[cn]
        v_pn = x[p] - x[n]
        g, dg = self._conductance(vc)
        # I = g(vc) * v_pn, linearised in both v_pn and vc: the channel
        # conductance, the cross terms dI/dvc as a VCCS, and the residual
        # I0 - g*v_pn - gm*vc = -gm*vc as a p -> n current.
        gm = dg * v_pn
        correction = -gm * vc
        stamper.add(self, ctx, (g, -g, -g, g, gm, -gm, -gm, gm,
                                -correction, correction, 0.0, 0.0))

    def batch_card(self, samples=None, states=None) -> np.ndarray:
        """Parameter rows of :meth:`batch_kernel`: this switch's own, as
        one column (a switch takes no per-sample card)."""
        if samples is not None or states is not None:
            raise NetlistError(f"{self.name}: a switch takes no "
                               "per-sample card or state")
        return np.array([[self.g_on], [self.g_off], [self.v_off],
                         [self.v_on - self.v_off], [self._log_off],
                         [self._log_span]])

    @staticmethod
    def batch_kernel(v: np.ndarray, card: np.ndarray) -> np.ndarray:
        """:meth:`stamp`'s values for terminal voltages ``v[..., (p, n,
        cp, cn)]`` and :meth:`batch_card` rows, along any leading axes."""
        g_on, g_off, v_off, width, log_off, log_span = card
        vc = v[..., 2] - v[..., 3]
        v_pn = v[..., 0] - v[..., 1]
        frac = (vc - v_off) / width
        # Evaluated inside the window only; outside it the clamp holds.
        inner = np.clip(frac, 0.0, 1.0)
        smooth = inner * inner * (3.0 - 2.0 * inner)
        g_inner = np.exp(log_off + smooth * log_span)
        outside = (frac <= 0.0) | (frac >= 1.0)
        g = np.where(frac <= 0.0, g_off, np.where(frac >= 1.0, g_on, g_inner))
        smooth_d = 6.0 * inner * (1.0 - inner) / width
        gm = np.where(outside, 0.0, g_inner * smooth_d * log_span) * v_pn
        correction = -gm * vc
        zero = np.zeros_like(g)
        return np.stack((g, -g, -g, g, gm, -gm, -gm, gm,
                         -correction, correction, zero, zero), axis=-1)

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
