"""What a characterization reads: the facts per-phase cache keys rest on.

A ``6t`` characterization never reads the store biases (``v_sr``,
``v_ctrl_store``) or the MTJ card, although its ``CellPoint`` key holds
them; and the ``nv`` cell's static supply powers read neither those nor
the domain depth N.
"""

from dataclasses import asdict, replace

import pytest

from repro.cells import PowerDomain
from repro.characterize import build_cell_testbench, characterize_cell
from repro.devices.mtj import MTJ_FIG9B, MTJ_TABLE1
from repro.pg.modes import Mode, OperatingConditions

TABLE1 = OperatingConditions()

#: Each input the 6T cell and the static powers must not read, changed
#: on its own: (conditions, MTJ card).
CHANGED = {
    "v_sr": (replace(TABLE1, v_sr=0.55), MTJ_TABLE1),
    "v_ctrl_store": (replace(TABLE1, v_ctrl_store=0.4), MTJ_TABLE1),
    "mtj-card": (TABLE1, MTJ_FIG9B),
}

#: The four static settles of the nv extraction: (mode, pg_override).
STATIC_SETTLES = ((Mode.STANDBY, None), (Mode.SLEEP, None),
                  (Mode.SHUTDOWN, None), (Mode.SHUTDOWN, TABLE1.vdd))


def _6t(cond, mtj) -> str:
    return repr(asdict(characterize_cell("6t", cond, PowerDomain(32, 32),
                                         mtj_params=mtj, cache_dir=None)))


def _nv_static_powers(cond, mtj, n_wordlines: int) -> str:
    tb = build_cell_testbench("nv", cond, PowerDomain(n_wordlines, 32),
                              mtj_params=mtj)
    return repr([tb.supply_power(tb.settle(mode, pg_override=pg))
                 for mode, pg in STATIC_SETTLES])


@pytest.fixture(scope="module")
def table1_6t() -> str:
    return _6t(TABLE1, MTJ_TABLE1)


@pytest.mark.parametrize("change", sorted(CHANGED))
def test_6t_reads_no_store_bias_and_no_mtj_card(change, table1_6t):
    assert _6t(*CHANGED[change]) == table1_6t


@pytest.mark.parametrize("n_wordlines", [32, 512, 2048])
def test_nv_static_powers_read_no_depth_store_bias_or_mtj_card(n_wordlines):
    reference = _nv_static_powers(TABLE1, MTJ_TABLE1, 512)
    assert _nv_static_powers(TABLE1, MTJ_TABLE1, n_wordlines) == reference
    for cond, mtj in CHANGED.values():
        assert _nv_static_powers(cond, mtj, n_wordlines) == reference
