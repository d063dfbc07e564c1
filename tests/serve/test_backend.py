"""The backend's disk-cache probe finds what the runners stored."""

import json

from repro.cells import PowerDomain
from repro.characterize import cache
from repro.characterize.data import CellCharacterization
from repro.characterize.ff_runner import (FlipFlopCharacterization,
                                          nvff_cache_key)
from repro.characterize.runner import cell_cache_key
from repro.devices.mtj import MTJ_TABLE1
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from repro.pg.modes import OperatingConditions
from repro.serve.backend import ROUTE_FNS, ExecBackend
from repro.serve.protocol import canonicalize


def _backend(cache_dir):
    return ExecBackend({"characterize": ROUTE_FNS["characterize"],
                        "nvff": ROUTE_FNS["nvff"]}, cache_dir=cache_dir)


def test_probe_hits_the_cell_runners_entry(tmp_path):
    cond = OperatingConditions(vdd=0.8)
    record = CellCharacterization(kind="6t", n_wordlines=512, vdd=0.8,
                                  frequency=cond.frequency, e_read=1e-15)
    key = cell_cache_key("6t", cond, PowerDomain(), NFET_20NM_HP,
                         PFET_20NM_HP, MTJ_TABLE1)
    cache.store(tmp_path, key, record)
    request = canonicalize("characterize",
                           {"kind": "6t", "cond": {"vdd": 0.8}})
    hit = _backend(tmp_path).probe(request)
    assert hit is not None and hit.source == "disk"
    assert hit.payload == json.loads(record.to_json())
    assert hit.age_s is not None and hit.age_s >= 0.0


def test_probe_hits_the_nvff_runners_entry(tmp_path):
    record = FlipFlopCharacterization(vdd=0.9, clock_frequency=1e9,
                                      e_clock_toggle=2e-15)
    key = nvff_cache_key(OperatingConditions(), NFET_20NM_HP, PFET_20NM_HP,
                         MTJ_TABLE1)
    cache.store(tmp_path, key, record)
    hit = _backend(tmp_path).probe(canonicalize("nvff", {}))
    assert hit is not None and hit.source == "disk"
    assert hit.payload == json.loads(record.to_json())


def test_probe_misses_another_request(tmp_path):
    key = cell_cache_key("nv", OperatingConditions(), PowerDomain(),
                         NFET_20NM_HP, PFET_20NM_HP, MTJ_TABLE1)
    cache.store(tmp_path, key, CellCharacterization(
        kind="nv", n_wordlines=512, vdd=0.9, frequency=1e9))
    request = canonicalize("characterize", {"kind": "6t"})
    assert _backend(tmp_path).probe(request) is None
