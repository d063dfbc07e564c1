"""Tests for the full characterisation pass (simulated numbers).

These use the session-scoped cached characterisations from conftest, so
the suite pays for the transient simulations once.
"""

import pytest

from repro.characterize.runner import characterize_cell
from repro.devices.mtj import MTJ_TABLE1
from repro.pg.modes import Mode
from repro.pg.scheduler import Schedule, ScheduleStep


class TestNvCharacterization:
    def test_functional_checks_passed(self, nv_char):
        assert nv_char.restore_ok
        assert nv_char.store_events >= 2

    def test_energies_positive_and_ordered(self, nv_char):
        assert 0 < nv_char.e_read < 1e-12
        assert 0 < nv_char.e_write < 1e-12
        # The 20 ns MTJ store dwarfs a single read/write cycle.
        assert nv_char.e_store > 3 * (nv_char.e_read + nv_char.e_write)
        assert nv_char.e_store == pytest.approx(
            nv_char.e_store_h + nv_char.e_store_l
        )
        assert nv_char.e_restore > 0

    def test_static_power_ladder(self, nv_char):
        """normal > sleep > super-cutoff shutdown (Fig. 6(c) ordering)."""
        assert nv_char.p_normal > nv_char.p_sleep > nv_char.p_shutdown > 0

    def test_super_cutoff_beats_nominal_shutdown(self, nv_char):
        assert nv_char.p_shutdown < nv_char.p_shutdown_nominal / 3

    def test_store_currents_exceed_critical(self, nv_char):
        """CIMS happened, so the drive exceeded Ic during both steps."""
        ic = MTJ_TABLE1.critical_current
        assert nv_char.store_current_h > ic
        assert nv_char.store_current_l > ic

    def test_delays_fit_cycle(self, nv_char):
        t_cyc = 1.0 / nv_char.frequency
        assert 0 < nv_char.read_delay < t_cyc / 2
        assert 0 < nv_char.write_delay < t_cyc / 2

    def test_timings_recorded(self, nv_char):
        assert nv_char.t_store == pytest.approx(20e-9)
        assert nv_char.t_restore == pytest.approx(2e-9)


class TestVolatileCharacterization:
    def test_no_store_fields(self, vt_char):
        assert vt_char.e_store == 0.0
        assert vt_char.e_restore == 0.0
        assert vt_char.store_events == 0

    def test_shutdown_equals_sleep(self, vt_char):
        """The volatile cell cannot power off; its long period is sleep."""
        assert vt_char.p_shutdown == vt_char.p_sleep

    def test_static_power_ladder(self, vt_char):
        assert vt_char.p_normal > vt_char.p_sleep > 0


class TestPaperComparisons:
    def test_nvpg_speed_matches_6t(self, nv_char, vt_char):
        """Paper: the NV-SRAM cell under NVPG has the same read/write
        speed as the 6T cell (PS-FinFETs isolate the MTJs)."""
        assert nv_char.read_delay == pytest.approx(vt_char.read_delay,
                                                   rel=0.10)
        assert nv_char.write_delay == pytest.approx(vt_char.write_delay,
                                                    rel=0.15)

    def test_leakage_comparable_in_normal_mode(self, nv_char, vt_char):
        """Paper Fig. 3(a)/6(c): with V_CTRL control the NV cell's static
        power is comparable to the 6T cell's."""
        assert nv_char.p_normal == pytest.approx(vt_char.p_normal,
                                                 rel=0.25)

    def test_read_write_energy_comparable(self, nv_char, vt_char):
        assert nv_char.e_read == pytest.approx(vt_char.e_read, rel=0.2)
        assert nv_char.e_write == pytest.approx(vt_char.e_write, rel=0.2)


class TestCaching:
    def test_cache_hit_is_fast_and_equal(self, ctx, domain, nv_char):
        again = characterize_cell("nv", ctx.cond, domain,
                                  cache_dir=ctx.cache_dir)
        assert again == nv_char

    def test_unknown_kind_rejected(self):
        from repro.errors import CharacterizationError

        with pytest.raises(CharacterizationError):
            characterize_cell("9t", cache_dir=None)


class TestDelayReference:
    """The read and write delays count from the instant the schedule
    raises the word line in the measured window."""

    @pytest.mark.parametrize("mode, data", [(Mode.READ, None),
                                            (Mode.WRITE, True)])
    def test_reference_is_the_word_line_corner(self, cond, mode, data):
        t_cyc = cond.t_cycle
        schedule = Schedule(
            [ScheduleStep(Mode.STANDBY, 2 * t_cyc)]
            + [ScheduleStep(mode, t_cyc, data=data)] * 3
            + [ScheduleStep(Mode.STANDBY, t_cyc)],
            cond,
        )
        window = schedule.windows_of(mode)[1]
        wl = schedule.line_waveforms()["wl"]
        corner = next(t for t in wl.times if t >= window.t_start)
        assert abs(window.wl_on - corner) <= 1e-15
