"""Concurrency-safety of the characterisation cache writer."""

import json
import os

import pytest

from repro.characterize import cache
from repro.characterize.data import CellCharacterization


def _result():
    return CellCharacterization(kind="nv", n_wordlines=8, vdd=0.9,
                                frequency=100e6, e_read=1e-15)


class TestStore:
    def test_round_trip(self, tmp_path):
        cache.store(tmp_path, "k1", _result())
        loaded = cache.load(tmp_path, "k1")
        assert loaded is not None
        assert loaded.kind == "nv"
        assert loaded.e_read == pytest.approx(1e-15)

    def test_survives_fixed_name_collision(self, tmp_path):
        """The old writer staged into the fixed path ``<key>.tmp``; a
        stale artifact (or a concurrent writer) at that exact name broke
        it.  The mkstemp-based writer must not care."""
        (tmp_path / "k1.tmp").mkdir()   # poison the legacy staging name
        cache.store(tmp_path, "k1", _result())
        assert cache.load(tmp_path, "k1") is not None

    def test_no_stale_temp_files_after_store(self, tmp_path):
        cache.store(tmp_path, "k2", _result())
        leftovers = [p for p in tmp_path.iterdir()
                     if p.is_file() and p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_write_cleans_up(self, tmp_path):
        """A record whose serialisation fails leaves nothing on disk."""
        broken = CellCharacterization(kind="nv", n_wordlines=8, vdd=0.9,
                                      frequency=100e6,
                                      extras={"not_json": object()})
        with pytest.raises(TypeError):
            cache.store(tmp_path, "k3", broken)
        assert not (tmp_path / "k3.json").exists()
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []

    def test_concurrent_writers_interleaved(self, tmp_path):
        """Simulate two writers racing on one key: each stages into its
        own temp file, so the losing rename still leaves valid JSON."""
        a = _result()
        b = _result()
        b.e_read = 2e-15
        cache.store(tmp_path, "k4", a)
        cache.store(tmp_path, "k4", b)
        envelope = json.loads((tmp_path / "k4.json").read_text())
        assert envelope["payload"]["e_read"] == pytest.approx(2e-15)

    def test_disabled_cache_is_noop(self, tmp_path):
        cache.store(None, "k5", _result())
        assert cache.load(None, "k5") is None
