"""Tests for the MNA stamper and evaluation context."""

import numpy as np
import pytest

from repro.analysis.mna import Context, Stamper


class TestStamper:
    def test_conductance_stamp(self):
        s = Stamper(3)
        s.conductance(0, 1, 2.0)
        assert s.A[0, 0] == 2.0
        assert s.A[1, 1] == 2.0
        assert s.A[0, 1] == -2.0
        assert s.A[1, 0] == -2.0
        assert s.A[2, 2] == 0.0

    def test_conductance_to_ground_skips_ground_row(self):
        s = Stamper(2)
        s.conductance(0, -1, 3.0)
        assert s.A[0, 0] == 3.0
        assert np.count_nonzero(s.A) == 1

    def test_conductance_from_ground(self):
        s = Stamper(2)
        s.conductance(-1, 1, 3.0)
        assert s.A[1, 1] == 3.0
        assert np.count_nonzero(s.A) == 1

    def test_current_stamp_signs(self):
        s = Stamper(2)
        s.current(0, 1, 1e-3)   # pushes current 0 -> 1
        assert s.b[0] == -1e-3
        assert s.b[1] == 1e-3

    def test_current_to_ground(self):
        s = Stamper(2)
        s.current(0, -1, 1e-3)
        assert s.b[0] == -1e-3
        assert s.b[1] == 0.0

    def test_matrix_and_rhs_raw(self):
        s = Stamper(3)
        s.matrix(2, 0, 1.0)
        s.rhs(2, 0.9)
        assert s.A[2, 0] == 1.0
        assert s.b[2] == 0.9
        s.matrix(-1, 0, 1.0)    # ground rows are ignored
        s.rhs(-1, 5.0)
        assert s.b.sum() == 0.9

    def test_clear(self):
        s = Stamper(2)
        s.conductance(0, 1, 1.0)
        s.rhs(0, 1.0)
        s.clear()
        assert not s.A.any()
        assert not s.b.any()

    def test_stamps_accumulate(self):
        s = Stamper(2)
        s.conductance(0, -1, 1.0)
        s.conductance(0, -1, 2.0)
        assert s.A[0, 0] == 3.0


class TestContext:
    def test_ground_voltage_is_zero(self):
        ctx = Context(x=np.array([1.0, 2.0]))
        assert ctx.v(-1) == 0.0
        assert ctx.v(0) == 1.0
        assert ctx.v(1) == 2.0

    def test_defaults(self):
        ctx = Context()
        assert ctx.mode == "dc"
        assert ctx.source_scale == 1.0
        assert ctx.method == "trap"
