"""EKV-style FinFET compact model with fin-count scaling.

The paper simulates a 20 nm FinFET PTM card in HSPICE.  PTM cards are
BSIM-CMG decks we cannot run here, so this module provides a continuous
compact model with the properties the paper's conclusions depend on:

* a single smooth expression valid from deep subthreshold to strong
  inversion (the EKV interpolation ``F(u) = ln^2(1 + e^(u/2))``), so both
  the pico/nano-amp leakage analysis (Fig. 3a, Fig. 6c) and the on-current
  driven store/read/write behaviour come from one model;
* source/drain symmetry, required for SRAM pass-gates and for the
  PS-FinFETs whose conduction direction differs between H-store and
  restore;
* drain-induced barrier lowering (DIBL), the dominant output-conductance
  and leakage-vs-Vds mechanism at 20 nm;
* fin-count scaling (``nfin``): FinFET cells are sized in integer fins,
  as the paper stresses, so current simply scales with ``nfin``.

The model is calibrated in :mod:`repro.devices.ptm20` to headline 20 nm
high-performance targets (Ion/fin, Ioff/fin, subthreshold swing, DIBL).

Sign conventions: the element computes the drain current ``i_ds`` flowing
drain -> channel -> source.  P-channel devices are handled by polarity
mirroring, which leaves the conductance Jacobian unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import DeviceError
from ..circuit.netlist import Element
from ..units import THERMAL_VOLTAGE_300K

#: Smoothing width (volts) for |Vds| inside the DIBL term, keeping the
#: model C1-continuous through Vds = 0.
_SOFTABS_EPS = 0.01


@dataclass(frozen=True)
class FinFETParams:
    """Parameter card for one device polarity.

    Attributes
    ----------
    polarity:
        +1 for n-channel, -1 for p-channel.
    vth0:
        Zero-bias threshold voltage magnitude (volts).
    slope_factor:
        EKV slope factor ``n``; subthreshold swing = n * vt * ln(10).
    i_spec:
        Specific current per fin (amps); sets the strong-inversion current
        scale, ``I = i_spec * [F(u_f) - F(u_r)]``.
    dibl:
        Threshold reduction per volt of |Vds| (V/V).
    vt_thermal:
        Thermal voltage kT/q (volts).
    label:
        Card name for reports.
    """

    polarity: int
    vth0: float
    slope_factor: float
    i_spec: float
    dibl: float
    vt_thermal: float = THERMAL_VOLTAGE_300K
    label: str = "generic"

    def __post_init__(self):
        if self.polarity not in (+1, -1):
            raise DeviceError("polarity must be +1 (n) or -1 (p)")
        if self.vth0 <= 0:
            raise DeviceError("vth0 must be positive (magnitude)")
        if self.slope_factor < 1.0:
            raise DeviceError("slope_factor must be >= 1")
        if self.i_spec <= 0:
            raise DeviceError("i_spec must be positive")
        if self.dibl < 0:
            raise DeviceError("dibl must be non-negative")

    def with_(self, **kwargs) -> "FinFETParams":
        """A copy of this card with some fields replaced."""
        return replace(self, **kwargs)

    @property
    def subthreshold_swing(self) -> float:
        """Subthreshold swing in volts/decade."""
        return self.slope_factor * self.vt_thermal * math.log(10.0)

    @property
    def temperature(self) -> float:
        """Temperature implied by the thermal voltage (kelvin)."""
        return 300.0 * self.vt_thermal / THERMAL_VOLTAGE_300K

    def at_temperature(self, kelvin: float,
                       vth_tempco: float = 7.0e-4) -> "FinFETParams":
        """First-order temperature-scaled copy of this card.

        * thermal voltage scales linearly with T (steeper subthreshold
          swing, the dominant leakage knob);
        * |Vth| drops by ``vth_tempco`` volts per kelvin (band-gap +
          Fermi-level shift, typically 0.5-1 mV/K);
        * the current factor combines the vt^2 term of the specific
          current with ~T^-1.5 phonon-limited mobility.

        The card must be re-derived from its 300 K original — applying
        ``at_temperature`` twice compounds the scaling, so it raises on a
        card that is already off-nominal.
        """
        if kelvin <= 0:
            raise DeviceError("temperature must be positive kelvin")
        if abs(self.temperature - 300.0) > 1e-6:
            raise DeviceError(
                "at_temperature must start from the 300 K card "
                f"(this one is at {self.temperature:.1f} K)"
            )
        ratio = kelvin / 300.0
        vth = max(self.vth0 - vth_tempco * (kelvin - 300.0), 0.01)
        i_spec = self.i_spec * (ratio ** 2) * (ratio ** -1.5)
        return self.with_(
            vt_thermal=THERMAL_VOLTAGE_300K * ratio,
            vth0=vth,
            i_spec=i_spec,
            label=f"{self.label}@{kelvin:.0f}K",
        )


def _interp_f(u: float) -> float:
    """EKV interpolation function F(u) = ln^2(1 + exp(u/2)), overflow-safe."""
    half = 0.5 * u
    if half > 40.0:
        log_term = half + math.log1p(math.exp(-half))
    else:
        log_term = math.log1p(math.exp(half))
    return log_term * log_term


def _interp_f_prime(u: float) -> float:
    """dF/du = ln(1 + e^(u/2)) * sigmoid(u/2)."""
    half = 0.5 * u
    if half > 40.0:
        log_term = half + math.log1p(math.exp(-half))
        sigmoid = 1.0
    else:
        e = math.exp(half)
        log_term = math.log1p(e)
        sigmoid = e / (1.0 + e)
    return log_term * sigmoid


def _softabs(x: float) -> float:
    return math.sqrt(x * x + _SOFTABS_EPS * _SOFTABS_EPS) - _SOFTABS_EPS


def _softabs_prime(x: float) -> float:
    return x / math.sqrt(x * x + _SOFTABS_EPS * _SOFTABS_EPS)


class FinFET(Element):
    """Three-terminal FinFET channel element: nodes ``(d, g, s)``.

    Gate current is zero (the gate node only enters through the
    transconductance).  Parasitic capacitances are added separately by the
    cell builders so their values stay visible in the netlist.

    Parameters
    ----------
    params:
        Device card (:class:`FinFETParams`).
    nfin:
        Number of fins; integer >= 1 per the paper's sizing discipline.
    """

    def __init__(self, name: str, d: str, g: str, s: str,
                 params: FinFETParams, nfin: int = 1):
        super().__init__(name, (d, g, s))
        if nfin < 1 or int(nfin) != nfin:
            raise DeviceError(f"{name}: nfin must be a positive integer")
        self.params = params
        self.nfin = int(nfin)

    # -- physics ----------------------------------------------------------
    def _evaluate(self, vd: float, vg: float, vs: float):
        """Current and Jacobian at absolute terminal potentials.

        Returns ``(i_ds, g_d, g_g, g_s)`` where ``i_ds`` flows d -> s and
        the ``g_*`` are its partial derivatives w.r.t. the *actual* node
        voltages (valid for both polarities thanks to mirroring).
        """
        p = self.params
        pol = p.polarity
        # Map to the n-channel frame.
        md, mg, ms = pol * vd, pol * vg, pol * vs

        vt = p.vt_thermal
        n = p.slope_factor
        dx = md - ms
        sa = _softabs(dx)
        sa_p = _softabs_prime(dx)
        vth_eff = p.vth0 - p.dibl * sa

        # Effective source potential: smooth minimum of the two channel
        # terminals.  Referencing the pinch-off voltage to it (rather than
        # to ground) keeps the subthreshold swing tied to Vgs even when the
        # source floats (pass-gates, stacked devices) while remaining
        # source/drain symmetric.
        vmin = 0.5 * (md + ms - sa)
        dvmin_dmd = 0.5 * (1.0 - sa_p)
        dvmin_dms = 0.5 * (1.0 + sa_p)

        vp = (mg - vmin - vth_eff) / n + vmin

        u_f = (vp - ms) / vt
        u_r = (vp - md) / vt
        f_f = _interp_f(u_f)
        f_r = _interp_f(u_r)
        fp_f = _interp_f_prime(u_f)
        fp_r = _interp_f_prime(u_r)

        scale = p.i_spec * self.nfin
        i_core = scale * (f_f - f_r)

        one_m = 1.0 - 1.0 / n
        dvp_dmd = dvmin_dmd * one_m + p.dibl * sa_p / n
        dvp_dms = dvmin_dms * one_m - p.dibl * sa_p / n
        du_f_dmg = 1.0 / (n * vt)
        du_r_dmg = du_f_dmg
        du_f_dms = (dvp_dms - 1.0) / vt
        du_f_dmd = dvp_dmd / vt
        du_r_dmd = (dvp_dmd - 1.0) / vt
        du_r_dms = dvp_dms / vt

        g_mg = scale * (fp_f * du_f_dmg - fp_r * du_r_dmg)
        g_md = scale * (fp_f * du_f_dmd - fp_r * du_r_dmd)
        g_ms = scale * (fp_f * du_f_dms - fp_r * du_r_dms)

        # Mirror back: i = pol * i_core(pol*v...), so d i/d v = g_core.
        return pol * i_core, g_md, g_mg, g_ms

    def current(self, solution) -> float:
        """Drain-to-source channel current at a solved point."""
        d, g, s = self.node_index
        i, _, _, _ = self._evaluate(solution.v(d), solution.v(g), solution.v(s))
        return i

    def ids(self, vd: float, vg: float, vs: float) -> float:
        """Drain current for explicit terminal potentials (model probe)."""
        i, _, _, _ = self._evaluate(vd, vg, vs)
        return i

    # -- stamping -----------------------------------------------------------
    def stamp(self, stamper, ctx) -> None:
        d, g, s = self.node_index
        x = ctx.xlist
        vd, vg, vs = x[d], x[g], x[s]
        i, g_d, g_g, g_s = self._evaluate(vd, vg, vs)

        # Linearised current i(v) ~ i0 + g_d dvd + g_g dvg + g_s dvs,
        # flowing d -> s: the Jacobian on the drain (+) and source (-)
        # rows, plus the residual as a d -> s current source.
        residual = i - (g_d * vd + g_g * vg + g_s * vs)
        stamper.add(self, ctx, (g_d, g_g, g_s, -g_d, -g_g, -g_s,
                                -residual, 0.0, residual))

    def stamp_pattern(self, mode: str = "dc"):
        """KCL rows at drain/source, columns for all three terminals.

        The gate row is absent: zero gate current means the gate node
        must be held up by some other element, which is exactly what the
        structural-singularity check exploits to catch floating gates.
        """
        d, g, s = self.node_index
        return [(row, col) for row in (d, s) for col in (d, g, s)]

    def __repr__(self) -> str:
        kind = "n" if self.params.polarity > 0 else "p"
        return f"<FinFET {self.name} {kind}-ch nfin={self.nfin}>"
