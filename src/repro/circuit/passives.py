"""Linear passive elements: resistors and capacitors.

Capacitors carry the integration history (previous voltage and current)
required by the companion models of the transient integrator; see
:mod:`repro.analysis.transient` for the accept/commit protocol.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import NetlistError
from .netlist import Element, conductance_pattern


class Resistor(Element):
    """Linear resistor between ``p`` and ``n``.

    Parameters
    ----------
    name:
        Unique element name.
    p, n:
        Node names.
    resistance:
        Ohms; must be positive.
    """

    is_linear = True

    def __init__(self, name: str, p: str, n: str, resistance: float):
        super().__init__(name, (p, n))
        resistance = float(resistance)
        if resistance <= 0:
            raise NetlistError(f"{name}: resistance must be positive")
        self.resistance = resistance
        self.conductance = 1.0 / resistance

    def stamp(self, stamper, ctx) -> None:
        g = self.conductance
        stamper.add(self, ctx, (g, -g, -g, g, 0.0, 0.0))

    def stamp_pattern(self, mode: str = "dc"):
        """Conductance block across p-n in every mode."""
        p, n = self.node_index
        return conductance_pattern(p, n)

    def current(self, solution) -> float:
        """Current flowing p -> n for a solved operating point/timepoint."""
        p, n = self.node_index
        return (solution.v(p) - solution.v(n)) * self.conductance

    def power(self, solution) -> float:
        """Dissipated power (always >= 0) at a solved point."""
        p, n = self.node_index
        dv = solution.v(p) - solution.v(n)
        return dv * dv * self.conductance


class Capacitor(Element):
    """Linear capacitor between ``p`` and ``n``.

    In DC analyses the capacitor is an open circuit.  In transient
    analyses it stamps the companion model selected by the integrator
    (backward Euler or trapezoidal), using the voltage/current history it
    stores internally.  An optional initial condition ``ic`` (volts across
    p-n) is applied by :func:`repro.analysis.dc.operating_point` when
    requested.
    """

    is_linear = True

    def __init__(self, name: str, p: str, n: str, capacitance: float,
                 ic: Optional[float] = None):
        super().__init__(name, (p, n))
        capacitance = float(capacitance)
        if capacitance <= 0:
            raise NetlistError(f"{name}: capacitance must be positive")
        self.capacitance = capacitance
        self.ic = ic
        self._v_prev = 0.0
        self._i_prev = 0.0

    # -- companion model ------------------------------------------------
    def _companion(self, ctx) -> Tuple[float, float]:
        """(geq, ieq): conductance and p->n current-source of the model."""
        dt = ctx.dt
        if ctx.method == "be":
            geq = self.capacitance / dt
            ieq = -geq * self._v_prev
        else:  # trapezoidal
            geq = 2.0 * self.capacitance / dt
            ieq = -(geq * self._v_prev + self._i_prev)
        return geq, ieq

    def stamp(self, stamper, ctx) -> None:
        if ctx.mode == "dc":
            return  # open circuit
        geq, ieq = self._companion(ctx)
        stamper.add(self, ctx, (geq, -geq, -geq, geq, -ieq, ieq))

    def stamp_pattern(self, mode: str = "dc"):
        """Open at DC (empty pattern); companion conductance otherwise."""
        if mode == "dc":
            return []
        p, n = self.node_index
        return conductance_pattern(p, n)

    def init_state(self, ctx) -> None:
        p, n = self.node_index
        self._v_prev = ctx.v(p) - ctx.v(n)
        self._i_prev = 0.0

    def commit(self, ctx):
        p, n = self.node_index
        v_new = ctx.v(p) - ctx.v(n)
        geq, ieq = self._companion(ctx)
        self._i_prev = geq * v_new + ieq
        self._v_prev = v_new
        return None

    @property
    def voltage_history(self) -> float:
        """Voltage across the capacitor at the last committed timepoint."""
        return self._v_prev
