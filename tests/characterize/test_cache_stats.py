"""Cache observability: hit/miss/quarantine/age counters, the typed load
and the NV-FF runner's use of the same store."""

import json
import threading
import warnings

import pytest

from repro.characterize import cache
from repro.characterize.data import CellCharacterization
from repro.exec import envelope


@pytest.fixture(autouse=True)
def _fresh_counters():
    cache.STATS.reset()
    yield
    cache.STATS.reset()


def _record():
    return CellCharacterization(kind="nv", n_wordlines=8, vdd=0.9,
                                frequency=100e6, e_read=1e-15)


class TestCounters:
    def test_miss_then_store_then_hit(self, tmp_path):
        assert cache.load(tmp_path, "k") is None
        cache.store(tmp_path, "k", _record())
        assert cache.load(tmp_path, "k") == _record()
        snap = cache.STATS.snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] == 1
        assert snap["stores"] == 1
        assert snap["hit_rate"] == 0.5

    def test_hit_age_is_tracked(self, tmp_path):
        cache.store(tmp_path, "k", _record())
        cache.load(tmp_path, "k")
        snap = cache.STATS.snapshot()
        assert snap["last_hit_age_s"] is not None
        assert snap["last_hit_age_s"] >= 0.0
        assert snap["max_hit_age_s"] >= snap["last_hit_age_s"]

    def test_entry_age_helper(self, tmp_path):
        assert envelope.entry_age_s(tmp_path, "missing") is None
        cache.store(tmp_path, "k", _record())
        assert envelope.entry_age_s(tmp_path, "k") >= 0.0

    def test_none_cache_dir_counts_nothing(self):
        assert cache.load(None, "k") is None
        cache.store(None, "k", _record())
        assert cache.STATS.snapshot()["misses"] == 0
        assert cache.STATS.snapshot()["stores"] == 0


class TestQuarantine:
    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="discarding cache entry"):
            assert cache.load(tmp_path, "bad") is None
        assert (tmp_path / envelope.CORRUPT_SUBDIR / "bad.json").exists()
        snap = cache.STATS.snapshot()
        assert snap["quarantined"] == 1
        assert snap["misses"] == 1      # the caller still saw a miss

    def test_checksum_mismatch_quarantined(self, tmp_path):
        cache.store(tmp_path, "k", _record())
        path = tmp_path / "k.json"
        data = json.loads(path.read_text())
        data["payload"]["e_read"] = 43.0     # silent corruption
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert cache.load(tmp_path, "k") is None
        assert cache.STATS.snapshot()["quarantined"] == 1

    def test_concurrent_readers_during_quarantine_all_miss_cleanly(
            self, tmp_path):
        """Racing readers of a corrupt entry each count one clean miss
        (one mover wins the quarantine rename; the rest must tolerate
        the entry vanishing underneath them)."""
        n = 8
        (tmp_path / "torn.json").write_text('{"schema": 0')
        barrier = threading.Barrier(n)
        results, errors = [], []

        def read():
            try:
                barrier.wait(timeout=5.0)
                results.append(cache.load(tmp_path, "torn"))
            except Exception as err:    # noqa: BLE001 - the assertion
                errors.append(err)

        threads = [threading.Thread(target=read) for _ in range(n)]
        # the filter is process-wide, so it covers the reader threads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        assert not errors
        assert results == [None] * n
        snap = cache.STATS.snapshot()
        assert snap["quarantined"] >= 1
        assert snap["misses"] == n
        # a fresh store over the quarantined key works immediately
        cache.store(tmp_path, "torn", _record())
        assert cache.load(tmp_path, "torn") == _record()

    def test_reject_payload_for_type_mismatch(self, tmp_path):
        """An intact envelope whose payload no longer fits the result
        type counts as a hit, then is quarantined."""
        envelope.store(tmp_path, "k", cache.CACHE_SCHEMA_VERSION,
                       {"unexpected": "shape"})
        with pytest.warns(RuntimeWarning,
                          match="does not fit CellCharacterization"):
            assert cache.load(tmp_path, "k") is None
        assert cache.load(tmp_path, "k") is None
        snap = cache.STATS.snapshot()
        assert (snap["hits"], snap["misses"], snap["quarantined"]) \
            == (1, 1, 1)


class TestEnvelope:
    def test_payload_roundtrip_is_schema_stamped(self, tmp_path):
        cache.store(tmp_path, "k", _record())
        data = json.loads((tmp_path / "k.json").read_text())
        assert data["schema"] == cache.CACHE_SCHEMA_VERSION
        assert data["payload"] == json.loads(_record().to_json())
        assert "sha256" in data

    def test_nvff_runner_uses_the_envelope(self, tmp_path):
        """NV-FF cache entries share the generic envelope (schema 7)."""
        from repro.characterize.ff_runner import characterize_nvff

        first = characterize_nvff(cache_dir=tmp_path)
        files = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["schema"] == cache.CACHE_SCHEMA_VERSION
        cache.STATS.reset()
        again = characterize_nvff(cache_dir=tmp_path)
        assert cache.STATS.snapshot()["hits"] == 1
        assert again.to_json() == first.to_json()
