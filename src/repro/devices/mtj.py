"""STT-MTJ macromodel: bias-dependent TMR plus CIMS switching dynamics.

The paper's MTJ macromodel (ref. [7], parameters in Table I) is, in
circuit terms, a two-state nonlinear resistor:

* **Parallel (P)** state: resistance ``R_P = RA / A`` with negligible bias
  dependence (RA = 2 ohm.um^2, device diameter 20 nm, giving the paper's
  6366 ohms).
* **Antiparallel (AP)** state: ``R_AP(V) = R_P * (1 + TMR(V))`` with the
  standard bias rolloff ``TMR(V) = TMR0 / (1 + (V/Vh)^2)``; Vh = 0.5 V is
  the half-maximum-TMR voltage, TMR0 = 100 %, so R_AP(0) = 12732 ohms —
  exactly Table I.

Current-induced magnetisation switching (CIMS) is modelled as a
threshold-plus-accumulation process: while the junction current exceeds
the critical current ``Ic = Jc * A`` in the polarity that destabilises the
present state, switching "progress" accumulates at a rate ``1/t_sw(I)``
with the spin-torque switching-time law ``t_sw(I) = tau0 / (I/Ic - 1)``
(capped below at a precessional limit).  When progress reaches 1 the state
flips — reported to the transient integrator as an event.  Sub-critical
current lets the progress relax.  This reproduces the store-design facts
the paper leans on: a 1.5x Ic store current completes well inside the
10 ns store window, while currents just above Ic do not (hence the
required margin), and a shorter store time needs a higher current.

Polarity convention: positive junction current flows from the ``free``
node to the ``pinned`` node.  Electrons then flow pinned -> free, which
stabilises the **parallel** state; i.e. positive current switches AP -> P
and negative current switches P -> AP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..errors import DeviceError
from ..circuit.netlist import Element, conductance_pattern


class MTJState(enum.Enum):
    """Magnetisation state of the free layer relative to the pinned layer."""

    PARALLEL = "P"
    ANTIPARALLEL = "AP"

    @property
    def opposite(self) -> "MTJState":
        if self is MTJState.PARALLEL:
            return MTJState.ANTIPARALLEL
        return MTJState.PARALLEL


@dataclass(frozen=True)
class MTJParams:
    """MTJ device card (Table I of the paper).

    Attributes
    ----------
    tmr0:
        Zero-bias tunnelling magnetoresistance ratio (1.0 = 100 %).
    ra_product:
        Resistance-area product of the parallel state (ohm * m^2).
    v_half:
        Bias at which the TMR falls to half its zero-bias value (volts).
    jc:
        CIMS critical current density (A/m^2).
    diameter:
        Junction diameter (m).
    tau0:
        Switching-time scale of the accumulation law (seconds);
        ``t_sw = tau0 / (I/Ic - 1)``.
    t_sw_min:
        Precessional lower bound on the switching time (seconds).
    relax_time:
        Relaxation time of sub-critical switching progress (seconds).
    delta:
        Thermal stability factor (E_barrier / kT) governing retention and
        sub-critical thermally-activated switching.
    attempt_time:
        Thermal attempt time tau_D of the Neel-Arrhenius law (seconds).
    t_sw_sigma:
        Fractional spread of the super-critical switching time, setting
        how fast the write error rate falls once the pulse outlasts the
        mean switching time.
    """

    tmr0: float = 1.0
    ra_product: float = 2.0e-12          # 2 ohm.um^2 in ohm.m^2
    v_half: float = 0.5
    jc: float = 5e10                      # 5e6 A/cm^2 in A/m^2
    diameter: float = 20e-9
    tau0: float = 2.0e-9
    t_sw_min: float = 0.5e-9
    relax_time: float = 5.0e-9
    delta: float = 60.0
    attempt_time: float = 1.0e-9
    t_sw_sigma: float = 0.10
    label: str = "mtj-table1"

    def __post_init__(self):
        if self.tmr0 <= 0:
            raise DeviceError("tmr0 must be positive")
        if self.ra_product <= 0 or self.diameter <= 0:
            raise DeviceError("ra_product and diameter must be positive")
        if self.v_half <= 0:
            raise DeviceError("v_half must be positive")
        if self.jc <= 0:
            raise DeviceError("jc must be positive")
        if self.tau0 <= 0 or self.t_sw_min <= 0 or self.relax_time <= 0:
            raise DeviceError("time constants must be positive")
        if self.delta <= 0 or self.attempt_time <= 0:
            raise DeviceError("thermal parameters must be positive")
        if self.t_sw_sigma <= 0:
            raise DeviceError("t_sw_sigma must be positive")

    @property
    def area(self) -> float:
        """Junction area (m^2)."""
        radius = 0.5 * self.diameter
        return math.pi * radius * radius

    @property
    def r_parallel(self) -> float:
        """Parallel-state resistance (ohms)."""
        return self.ra_product / self.area

    @property
    def r_antiparallel_zero_bias(self) -> float:
        """AP-state resistance at zero bias (ohms)."""
        return self.r_parallel * (1.0 + self.tmr0)

    @property
    def critical_current(self) -> float:
        """CIMS critical current Ic = Jc * A (amps)."""
        return self.jc * self.area

    def switching_time(self, current: float) -> float:
        """Switching time for a super-critical drive current (seconds).

        Returns ``inf`` for |current| <= Ic.
        """
        overdrive = abs(current) / self.critical_current - 1.0
        if overdrive <= 0.0:
            return math.inf
        return max(self.tau0 / overdrive, self.t_sw_min)

    # -- stochastic switching (write-error-rate extension) ----------------
    def thermal_tau(self, current: float) -> float:
        """Neel-Arrhenius time constant of thermally-activated switching.

        ``tau = tau_D * exp(delta * (1 - |I|/Ic))`` for sub-critical
        drive; spin torque linearly lowers the effective barrier, which
        is clamped at zero for |I| >= Ic (tau bottoms out at tau_D).
        """
        reduced = max(1.0 - abs(current) / self.critical_current, 0.0)
        exponent = min(self.delta * reduced, 700.0)
        return self.attempt_time * math.exp(exponent)

    def retention_time(self) -> float:
        """Mean thermally-activated flip time at zero bias (seconds)."""
        return self.thermal_tau(0.0)

    def write_error_rate(self, current: float, duration: float) -> float:
        """Probability the junction has NOT switched after ``duration``.

        * Sub-critical drive (|I| <= Ic): thermally activated,
          ``WER = exp(-t / thermal_tau(I))`` — astronomically slow for
          meaningful barriers, which is why stores need |I| > Ic.
        * Super-critical drive: switching is quasi-deterministic around
          the spin-torque switching time; the residual error is the tail
          of its (fractional ``t_sw_sigma``) spread,
          ``WER = exp(-(t - t_sw) / (sigma * t_sw))`` for t > t_sw.

        This quantifies the paper's remark that "the store time cannot be
        easily reduced to suppress the error rate of CIMS ... a shorter
        store time needs a higher store current".
        """
        if duration <= 0:
            return 1.0
        i = abs(current)
        thermal = math.exp(-min(duration / self.thermal_tau(i), 700.0))
        if i <= self.critical_current:
            return thermal
        # Super-critical: the junction switches by whichever mechanism is
        # faster — the quasi-deterministic spin-torque reversal or the
        # barrier-free thermal agitation.  Taking the minimum keeps WER
        # monotone in current across the Ic boundary.
        t_sw = self.switching_time(i)
        if duration <= t_sw:
            return thermal
        tail = (duration - t_sw) / (self.t_sw_sigma * t_sw)
        return min(math.exp(-min(tail, 700.0)), thermal)

    def required_current_for_wer(self, duration: float,
                                 wer: float) -> float:
        """Smallest super-critical current meeting ``wer`` in ``duration``.

        Inverts :meth:`write_error_rate` in the super-critical regime:
        the pulse must outlast the mean switching time by
        ``sigma * t_sw * ln(1/wer)``.
        """
        if not (0.0 < wer < 1.0):
            raise DeviceError("wer must be in (0, 1)")
        if duration <= 0:
            raise DeviceError("duration must be positive")
        # t_sw such that t_sw * (1 + sigma * ln(1/wer)) = duration.
        t_sw_needed = duration / (1.0 + self.t_sw_sigma * math.log(1.0 / wer))
        if t_sw_needed <= self.t_sw_min:
            t_sw_needed = self.t_sw_min
        overdrive = self.tau0 / t_sw_needed
        return self.critical_current * (1.0 + overdrive)

    def at_temperature(self, kelvin: float) -> "MTJParams":
        """Temperature-scaled copy: the stability factor is an energy
        barrier over kT, so ``delta(T) = delta_300K * 300 / T`` — hot
        junctions retain for less time and switch slightly more easily.
        """
        if kelvin <= 0:
            raise DeviceError("temperature must be positive kelvin")
        return self.with_(
            delta=self.delta * 300.0 / kelvin,
            label=f"{self.label}@{kelvin:.0f}K",
        )

    def with_(self, **kwargs) -> "MTJParams":
        """A copy of this card with some fields replaced."""
        return replace(self, **kwargs)


#: The exact card of the paper's Table I.
MTJ_TABLE1 = MTJParams()

#: The relaxed card of Fig. 9(b): Jc = 1e6 A/cm^2.
MTJ_FIG9B = MTJParams(jc=1e10, label="mtj-fig9b")


class MTJ(Element):
    """Two-terminal MTJ element: nodes ``(free, pinned)``.

    The state is frozen during DC analyses and Newton iterations; it
    advances only in ``commit`` (accepted transient steps), which is what
    makes the Fig. 3 store-current *static* sweeps well-defined while
    transients still capture the store dynamics.
    """

    def __init__(self, name: str, free: str, pinned: str,
                 params: Optional[MTJParams] = None,
                 state: MTJState = MTJState.PARALLEL):
        super().__init__(name, (free, pinned))
        self.params = params or MTJ_TABLE1
        self.state = state
        self.progress = 0.0
        self.switch_count = 0

    # -- resistance ---------------------------------------------------------
    def resistance(self, v: float, state: Optional[MTJState] = None) -> float:
        """Junction resistance at bias ``v`` for ``state`` (default: now)."""
        state = state or self.state
        p = self.params
        if state is MTJState.PARALLEL:
            return p.r_parallel
        rolloff = 1.0 + (v / p.v_half) ** 2
        return p.r_parallel * (1.0 + p.tmr0 / rolloff)

    def current_at(self, v: float, state: MTJState) -> float:
        """Junction current at bias ``v`` for an explicit ``state``."""
        return v / self.resistance(v, state)

    def _current_and_derivative(self, v: float) -> Tuple[float, float]:
        """I(V) and dI/dV in the present state."""
        p = self.params
        if self.state is MTJState.PARALLEL:
            g = 1.0 / p.r_parallel
            return v * g, g
        ratio = v / p.v_half
        rolloff = 1.0 + ratio * ratio
        r = p.r_parallel * (1.0 + p.tmr0 / rolloff)
        dr_dv = -p.r_parallel * p.tmr0 * (2.0 * v / (p.v_half ** 2)) / (rolloff ** 2)
        i = v / r
        di_dv = (r - v * dr_dv) / (r * r)
        return i, di_dv

    # -- stamping -------------------------------------------------------------
    def stamp(self, stamper, ctx) -> None:
        free, pinned = self.node_index
        v = ctx.xlist[free] - ctx.xlist[pinned]
        i, g = self._current_and_derivative(v)
        norton = i - g * v
        stamper.add(self, ctx, (g, -g, -g, g, -norton, norton))

    def stamp_pattern(self, mode: str = "dc"):
        """Nonlinear-resistor conductance block across free-pinned."""
        free, pinned = self.node_index
        return conductance_pattern(free, pinned)

    # -- array kernel (repro.analysis.batch) ---------------------------------
    def batch_card(self, samples=None, states=None) -> np.ndarray:
        """Parameter rows of :meth:`batch_kernel`, one column per sample.

        ``samples`` holds one :class:`MTJParams` and ``states`` one
        :class:`MTJState` per sample; ``None`` for either takes this
        junction's own card or state.
        """
        count = len(samples if samples is not None else states or [None])
        cards = [self.params] * count if samples is None else samples
        states = [self.state] * count if states is None else states
        if len(states) != len(cards):
            raise DeviceError(f"{self.name}: {len(cards)} cards but "
                              f"{len(states)} states")
        return np.array([(p.r_parallel, p.tmr0, p.v_half,
                          float(state is MTJState.PARALLEL))
                         for p, state in zip(cards, states)]).T.copy()

    @staticmethod
    def _batch_iv(v: np.ndarray, card: np.ndarray):
        """``(V, I, dI/dV)`` for terminal voltages ``v[..., (free,
        pinned)]``: :meth:`_current_and_derivative` over arrays."""
        r_p, tmr0, v_half, parallel = card
        volts = v[..., 0] - v[..., 1]
        ratio = volts / v_half
        rolloff = 1.0 + ratio * ratio
        r = r_p * (1.0 + tmr0 / rolloff)
        dr_dv = -r_p * tmr0 * (2.0 * volts / (v_half ** 2)) / (rolloff ** 2)
        g_p = 1.0 / r_p
        is_p = parallel > 0.5
        i = np.where(is_p, volts * g_p, volts / r)
        g = np.where(is_p, g_p, (r - volts * dr_dv) / (r * r))
        return volts, i, g

    @staticmethod
    def batch_kernel(v: np.ndarray, card: np.ndarray) -> np.ndarray:
        """:meth:`stamp`'s values for terminal voltages ``v[..., (free,
        pinned)]`` and :meth:`batch_card` rows, along any leading axes."""
        volts, i, g = MTJ._batch_iv(v, card)
        norton = i - g * volts
        return np.stack((g, -g, -g, g, -norton, norton), axis=-1)

    def batch_current(self, x: np.ndarray, card: np.ndarray) -> np.ndarray:
        """Junction current free -> pinned of every row of ``x`` (see
        :meth:`~repro.circuit.netlist.Element.batch_values`)."""
        return self._batch_iv(x[:, list(self.node_index)], card)[1]

    # -- measurements -----------------------------------------------------------
    def current(self, solution) -> float:
        """Junction current free -> pinned at a solved point."""
        free, pinned = self.node_index
        v = solution.v(free) - solution.v(pinned)
        i, _ = self._current_and_derivative(v)
        return i

    def voltage(self, solution) -> float:
        """Junction voltage V(free) - V(pinned)."""
        free, pinned = self.node_index
        return solution.v(free) - solution.v(pinned)

    # -- dynamics ---------------------------------------------------------------
    def _destabilising(self, current: float) -> bool:
        """True if ``current`` pushes the free layer out of its state."""
        if self.state is MTJState.ANTIPARALLEL:
            return current > 0.0   # AP -> P needs positive (free->pinned)
        return current < 0.0       # P -> AP needs negative

    def commit(self, ctx) -> Optional[str]:
        free, pinned = self.node_index
        v = ctx.v(free) - ctx.v(pinned)
        i, _ = self._current_and_derivative(v)
        dt = ctx.dt
        if self._destabilising(i) and abs(i) > self.params.critical_current:
            t_sw = self.params.switching_time(i)
            self.progress += dt / t_sw
            if self.progress >= 1.0:
                old = self.state
                self.state = self.state.opposite
                self.progress = 0.0
                self.switch_count += 1
                return f"{old.value}->{self.state.value}"
        else:
            self.progress *= math.exp(-dt / self.params.relax_time)
        return None

    def init_state(self, ctx) -> None:
        self.progress = 0.0

    def snapshot_state(self):
        return (self.state, self.progress, self.switch_count)

    def restore_state(self, snap) -> None:
        self.state, self.progress, self.switch_count = snap

    def set_state(self, state: MTJState) -> None:
        """Force the magnetisation state (testbench initialisation)."""
        self.state = state
        self.progress = 0.0

    def __repr__(self) -> str:
        return f"<MTJ {self.name} state={self.state.value}>"
