"""The read and write recipes end their transient at the measured window.

The recipe declares six cycles (standby, three accesses, standby) and
measures the second access.  Its run stops at that window's end, and
since integration is causal and the step cap still comes from the whole
schedule, everything up to there is the run to the schedule's end.
"""

import numpy as np
import pytest

from repro.analysis.trust import TrustAccumulator
from repro.cells import PowerDomain
from repro.characterize import runner
from repro.characterize.data import CellCharacterization
from repro.characterize.testbench import build_cell_testbench
from repro.errors import CharacterizationError
from repro.pg.modes import Mode
from repro.recovery.faults import FaultSpec, inject_fault

#: (extraction, energy field, delay field, reference delay) per access.
RECIPES = {
    Mode.READ: (runner._extract_read, "e_read", "read_delay",
                runner._read_delay),
    Mode.WRITE: (runner._extract_write, "e_write", "write_delay",
                 runner._write_delay),
}


def _characterization(tb):
    return CellCharacterization(kind=tb.kind,
                                n_wordlines=tb.domain.n_wordlines,
                                vdd=tb.cond.vdd,
                                frequency=tb.cond.frequency)


def _recipe_run(tb, mode):
    """Run the recipe of ``mode`` on ``tb``; return what it extracted,
    and the schedule and transient of the one run it made."""
    runs = []
    real_run = tb.run

    def spy(schedule, *args, **kwargs):
        runs.append((schedule, real_run(schedule, *args, **kwargs)))
        return runs[-1][1]

    tb.run = spy
    out = _characterization(tb)
    RECIPES[mode][0](tb, out, TrustAccumulator())
    ((schedule, result),) = runs
    return out, schedule, result


@pytest.mark.parametrize("n", [32, 2048])
@pytest.mark.parametrize("kind", ["nv", "6t"])
@pytest.mark.parametrize("mode", [Mode.READ, Mode.WRITE], ids=["read", "write"])
def test_recipe_stops_at_the_measured_window(cond, kind, n, mode):
    _, energy, delay, reference_delay = RECIPES[mode]
    domain = PowerDomain(n, 32)
    out, schedule, result = _recipe_run(
        build_cell_testbench(kind, cond, domain), mode)
    # the schedule keeps all six cycles; only the run stops early
    assert schedule.total_duration == pytest.approx(6 * cond.t_cycle)

    full_tb = build_cell_testbench(kind, cond, domain)
    full = full_tb.run(schedule, mtj_data=False)
    window = schedule.windows_of(mode)[1]

    assert result.time[-1] == window.t_end
    before = full.time < window.t_end
    np.testing.assert_array_equal(result.time[:-1], full.time[before])
    np.testing.assert_array_equal(result.states[:-1], full.states[before])
    assert getattr(out, energy) == pytest.approx(
        runner.window_energy(full, window), rel=1e-11, abs=0.0)
    assert getattr(out, delay) == reference_delay(full, full_tb, window)


@pytest.mark.parametrize("kind", ["nv", "6t"])
@pytest.mark.parametrize("mode, device, message", [
    # An open QB-side pull-down cannot hold QB low against the
    # precharged bitline: the read flips the cell.
    (Mode.READ, "cell.pdr", "read disturbed the stored data"),
    # An open Q-side pass gate cannot pull Q down in the write(0) before
    # the measured write, so Q is already high and never rises through
    # V_DD/2 in the measured write(1).
    (Mode.WRITE, "cell.pgl", "write never flipped the cell"),
], ids=["read-disturb", "write-never-flipped"])
def test_validation_fires_at_the_window_end(cond, kind, mode, device,
                                            message):
    tb = build_cell_testbench(kind, cond, PowerDomain(32, 32))
    inject_fault(tb.circuit, FaultSpec("device_open", device, 1e-9))
    with pytest.raises(CharacterizationError, match=message):
        RECIPES[mode][0](tb, _characterization(tb), TrustAccumulator())
