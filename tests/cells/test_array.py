"""Tests for the power-domain arithmetic and SPICE-level arrays."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.analysis import operating_point
from repro.cells import PowerDomain, build_cell_array
from repro.cells.array import CBL_FIXED, CBL_PER_ROW


class TestPowerDomain:
    def test_paper_reference_sizes(self):
        # Fig. 7(b): N = 32..2048 with M = 32 spans 128 B .. 8 kB.
        assert PowerDomain(32, 32).size_bytes == 128
        assert PowerDomain(2048, 32).size_bytes == 8192

    def test_num_cells(self):
        assert PowerDomain(512, 32).num_cells == 16384

    def test_bitline_capacitance_scales_with_rows(self):
        small = PowerDomain(32, 32).bitline_capacitance
        large = PowerDomain(2048, 32).bitline_capacitance
        assert large > small
        assert small == pytest.approx(CBL_FIXED + 32 * CBL_PER_ROW)

    def test_validation(self):
        with pytest.raises(NetlistError):
            PowerDomain(0, 32)
        with pytest.raises(NetlistError):
            PowerDomain(32, 0)

    def test_str(self):
        assert "N=512" in str(PowerDomain(512, 32))

    @given(n=st.integers(min_value=1, max_value=4096),
           m=st.integers(min_value=1, max_value=128))
    @settings(max_examples=50, deadline=None)
    def test_size_consistency(self, n, m):
        pd = PowerDomain(n, m)
        assert pd.num_cells == n * m
        assert pd.size_bytes * 8 == pd.num_cells


class TestBuildCellArray:
    def test_dimensions_validated(self):
        with pytest.raises(NetlistError):
            build_cell_array(0, 2)

    def test_structure(self):
        tb = build_cell_array(2, 2)
        assert tb.rows == 2
        assert tb.cols == 2
        # Shared column bitlines: one BL source pair per column only.
        assert "vbl0" in tb.circuit
        assert "vbl1" in tb.circuit
        assert "vbl2" not in tb.circuit
        # Per-row control lines.
        for r in range(2):
            for src in (f"vwl{r}", f"vsr{r}", f"vctrl{r}", f"vpg{r}"):
                assert src in tb.circuit

    def test_array_holds_checkerboard(self):
        tb = build_cell_array(2, 2)
        data = [[True, False], [False, True]]
        sol = operating_point(tb.circuit, ic=tb.initial_conditions(data))
        for r in range(2):
            for c in range(2):
                assert tb.cells[r][c].read_data(sol, tb.vdd) is data[r][c]

    def test_row_shutdown_leaves_other_row_intact(self):
        tb = build_cell_array(2, 1)
        tb.circuit["vpg1"].set_level(1.0)   # super cutoff row 1
        data = [[True], [True]]
        sol = operating_point(tb.circuit, ic=tb.initial_conditions(data))
        assert tb.cells[0][0].read_data(sol, tb.vdd) is True
        assert sol.voltage("vvdd1") < 0.3   # row 1 collapsed
        assert sol.voltage("vvdd0") > 0.85
