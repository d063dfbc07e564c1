"""Tests for the MTJ access-disturb analysis (NOF hazard)."""

import pytest

from repro.cells import PowerDomain
from repro.characterize.disturb import (
    DisturbReport,
    nof_access_disturb,
    nvpg_access_disturb,
)
from repro.pg.modes import Mode, OperatingConditions

COND = OperatingConditions()
DOMAIN = PowerDomain(64, 32)


@pytest.fixture(scope="module")
def nof_read():
    return nof_access_disturb(Mode.READ, COND, DOMAIN)


@pytest.fixture(scope="module")
def nof_write():
    return nof_access_disturb(Mode.WRITE, COND, DOMAIN)


@pytest.fixture(scope="module")
def nvpg_read():
    return nvpg_access_disturb(Mode.READ, COND, DOMAIN)


class TestNofStress:
    def test_reads_stress_but_do_not_flip(self, nof_read):
        """With retention engaged, reads push substantial sub-critical
        current through the junctions — a real but bounded hazard."""
        assert 0.3 < nof_read.peak_current_ratio < 1.0
        assert not nof_read.flipped
        assert nof_read.peak_progress < 0.5

    def test_writes_reach_the_write_back_regime(self, nof_write):
        """NOF writes drive the MTJs at/above Ic — that is precisely the
        'every-cycle write back' mechanism (and its energy cost)."""
        assert nof_write.peak_current_ratio > 0.9

    def test_report_fields(self, nof_read):
        assert isinstance(nof_read, DisturbReport)
        assert nof_read.mode == "read"

    def test_safe_property(self, nof_read):
        assert nof_read.safe == (
            not nof_read.flipped and nof_read.peak_current_ratio < 0.95
        )

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            nof_access_disturb(Mode.SLEEP, COND, DOMAIN)


class TestNvpgIsolation:
    def test_psfinfets_isolate_completely(self, nvpg_read):
        """The electrical-separation claim in its sharpest form: with SR
        off, junction currents during accesses are ~zero."""
        assert nvpg_read.peak_current_ratio < 1e-2
        assert nvpg_read.peak_progress == 0.0
        assert not nvpg_read.flipped

    def test_write_burst_also_isolated(self):
        report = nvpg_access_disturb(Mode.WRITE, COND, DOMAIN)
        assert report.peak_current_ratio < 1e-2
        assert not report.flipped

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            nvpg_access_disturb(Mode.SLEEP, COND, DOMAIN)

    def test_contrast_with_nof(self, nof_read, nvpg_read):
        assert nof_read.peak_current_ratio > \
            50 * max(nvpg_read.peak_current_ratio, 1e-6)
