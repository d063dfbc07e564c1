"""Full read-path integration: cell -> bitlines -> sense amplifier.

The characterisation testbench measures reads as a bitline differential;
this integration closes the loop with a real latch-type sense amp
resolving that differential to full rails — for both data values, on
both the 6T and NV-SRAM cells, at array-scale bitline loading.
"""

import pytest

from repro.analysis import transient
from repro.analysis.transient import TransientOptions
from repro.circuit import (
    Capacitor,
    Circuit,
    PiecewiseLinear,
    VoltageControlledSwitch,
    VoltageSource,
)
from repro.cells import PowerDomain, add_nvsram, add_senseamp, add_sram6t

VDD = 0.9

# Read timing: precharge, word line, then fire the SA.
T_PRECH_END = 1.0e-9
T_WL_ON = 1.2e-9
T_ISO_OFF = 2.6e-9
T_SAE_ON = 2.75e-9
T_END = 4.0e-9


def _read_path(kind: str, data: bool, n_rows: int = 512):
    c = Circuit(f"read-path-{kind}")
    c.add(VoltageSource("vdd", "vdd", "0", dc=VDD))
    c.add(VoltageSource("vprech", "prech", "0", waveform=PiecewiseLinear(
        [(0.0, VDD), (T_PRECH_END, VDD), (T_PRECH_END + 50e-12, 0.0)])))
    c.add(VoltageSource("vwl", "wl", "0", waveform=PiecewiseLinear(
        [(0.0, 0.0), (T_WL_ON, 0.0), (T_WL_ON + 50e-12, VDD)])))
    c.add(VoltageSource("viso", "iso", "0", waveform=PiecewiseLinear(
        [(0.0, VDD), (T_ISO_OFF, VDD), (T_ISO_OFF + 50e-12, 0.0)])))
    c.add(VoltageSource("vsae", "sae", "0", waveform=PiecewiseLinear(
        [(0.0, 0.0), (T_SAE_ON, 0.0), (T_SAE_ON + 50e-12, VDD)])))

    c_bl = PowerDomain(n_wordlines=n_rows, word_bits=32).bitline_capacitance
    for bl in ("bl", "blb"):
        c.add(Capacitor(f"c_{bl}", bl, "0", c_bl))
        c.add(VoltageControlledSwitch(
            f"sw_prech_{bl}", bl, "vdd", "prech", "0",
            r_on=4e3, v_on=VDD, v_off=0.0,
        ))

    if kind == "nv":
        c.add(VoltageSource("vsr", "sr", "0", dc=0.0))
        c.add(VoltageSource("vctrl", "ctrl", "0", dc=0.07))
        cell = add_nvsram(c, "cell", "vdd", "bl", "blb", "wl", "sr",
                          "ctrl")
    else:
        cell = add_sram6t(c, "cell", "vdd", "bl", "blb", "wl")

    sa = add_senseamp(c, "sa", "bl", "blb", "sae", "iso", "vdd")
    ic = cell.initial_conditions(data, VDD)
    result = transient(c, T_END, ic=ic,
                       options=TransientOptions(dt_initial=10e-12))
    return c, cell, sa, result


class TestReadPath:
    @pytest.mark.parametrize("kind", ["6t", "nv"])
    @pytest.mark.parametrize("data", [True, False])
    def test_sense_amp_resolves_stored_bit(self, kind, data):
        _, core, sa, result = _read_path(kind, data)
        final = result.final_solution()
        # SRAM convention: reading a stored 1 (Q high) leaves BL high and
        # discharges BLB through the QB-side pass gate.
        assert sa.read_output(final) is data
        assert abs(sa.differential(final)) > 0.8 * VDD

    @pytest.mark.parametrize("kind", ["6t", "nv"])
    def test_read_is_nondestructive(self, kind):
        _, core, sa, result = _read_path(kind, True)
        assert core.read_data(result.final_solution(), VDD) is True

    def test_bitline_differential_develops_before_firing(self):
        _, core, sa, result = _read_path("nv", True)
        diff = result.sample("bl", T_ISO_OFF) - result.sample(
            "blb", T_ISO_OFF)
        assert diff > 0.05   # the sense margin the SA amplifies

    def test_deep_bitline_still_resolves(self):
        """2048-row bitline (8 kB domain): slower slew, same outcome."""
        _, core, sa, result = _read_path("nv", False, n_rows=2048)
        assert sa.read_output(result.final_solution()) is False

    def test_nv_cell_matches_6t_discharge_rate(self):
        """The PS-FinFETs must not slow the read: equal bitline slew."""
        def discharge(kind):
            _, _, _, result = _read_path(kind, True)
            return result.sample("blb", T_ISO_OFF)

        assert discharge("nv") == pytest.approx(discharge("6t"),
                                                abs=0.02)
