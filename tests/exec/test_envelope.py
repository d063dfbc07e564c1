"""The integrity envelope shared by the characterisation and lint caches:
round trip, quarantine of bad entries, atomic stores and the warn-once
unwritable directory."""

import json
import os
import re
import threading
import warnings

import pytest

from repro.exec import atomicio, envelope

SCHEMA = 3


def _payload():
    return {"kind": "demo", "value": 42.0}


@pytest.fixture(autouse=True)
def _fresh_warn_state(monkeypatch):
    monkeypatch.setattr(envelope, "_UNWRITABLE", set())


def _quarantined(tmp_path, key, match):
    """Load ``key`` expecting a quarantine whose warning matches
    ``match`` and names the entry's path."""
    with pytest.warns(RuntimeWarning, match=match) as caught:
        assert envelope.load(tmp_path, key, SCHEMA) == (
            None, envelope.QUARANTINE)
    assert str(tmp_path / f"{key}.json") in str(caught[0].message)
    assert not (tmp_path / f"{key}.json").exists()
    assert (tmp_path / envelope.CORRUPT_SUBDIR / f"{key}.json").exists()


class TestLoadStore:
    def test_round_trip(self, tmp_path):
        assert envelope.store(tmp_path, "k", SCHEMA, _payload()) \
            == envelope.STORED
        assert envelope.load(tmp_path, "k", SCHEMA) == (_payload(),
                                                        envelope.HIT)

    def test_entry_fields(self, tmp_path):
        envelope.store(tmp_path, "k", SCHEMA, _payload())
        assert json.loads((tmp_path / "k.json").read_text()) == {
            "schema": SCHEMA,
            "sha256": envelope.checksum(_payload()),
            "payload": _payload(),
        }

    def test_missing_entry(self, tmp_path):
        assert envelope.load(tmp_path, "missing", SCHEMA) == (None,
                                                              envelope.MISS)

    def test_none_directory(self):
        assert envelope.store(None, "k", SCHEMA, _payload()) is None
        assert envelope.load(None, "k", SCHEMA) == (None, envelope.MISS)

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        envelope.store(target, "k", SCHEMA, _payload())
        assert (target / "k.json").exists()

    def test_last_writer_wins(self, tmp_path):
        """Two writers of one key: the later rename leaves valid JSON."""
        envelope.store(tmp_path, "k", SCHEMA, {"value": 1.0})
        envelope.store(tmp_path, "k", SCHEMA, {"value": 2.0})
        assert envelope.load(tmp_path, "k", SCHEMA)[0] == {"value": 2.0}

    def test_cache_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert envelope.cache_root() == tmp_path


class TestQuarantine:
    def test_corrupt_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        _quarantined(tmp_path, "bad", "unparseable JSON")

    def test_not_an_envelope(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"unexpected": 1}')
        _quarantined(tmp_path, "bad", "not an integrity envelope")

    def test_malformed_fields(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"schema": SCHEMA, "payload": [1]}))
        _quarantined(tmp_path, "bad", "malformed envelope fields")

    def test_stale_schema(self, tmp_path):
        envelope.store(tmp_path, "old", SCHEMA - 1, _payload())
        _quarantined(tmp_path, "old", f"schema {SCHEMA - 1} != {SCHEMA}")

    def test_checksum_flip(self, tmp_path):
        envelope.store(tmp_path, "flip", SCHEMA, _payload())
        path = tmp_path / "flip.json"
        data = json.loads(path.read_text())
        data["payload"]["value"] = 43.0     # silent corruption
        path.write_text(json.dumps(data))
        _quarantined(tmp_path, "flip", "checksum mismatch")

    def test_good_entries_survive(self, tmp_path):
        envelope.store(tmp_path, "good", SCHEMA, _payload())
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.warns(RuntimeWarning):
            envelope.load(tmp_path, "bad", SCHEMA)
        assert envelope.load(tmp_path, "good", SCHEMA)[0] == _payload()

    def test_concurrent_readers_all_miss_cleanly(self, tmp_path):
        """Racing readers of a corrupt entry all get a clean miss: one
        mover wins the quarantine rename, the rest tolerate the entry
        vanishing underneath them."""
        n = 8
        (tmp_path / "torn.json").write_text('{"schema": 0')
        barrier = threading.Barrier(n)
        results, errors = [], []

        def read():
            try:
                barrier.wait(timeout=5.0)
                results.append(envelope.load(tmp_path, "torn", SCHEMA))
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
        assert [payload for payload, _ in results] == [None] * n
        assert envelope.QUARANTINE in {outcome for _, outcome in results}
        # a fresh store over the quarantined key works immediately
        envelope.store(tmp_path, "torn", SCHEMA, _payload())
        assert envelope.load(tmp_path, "torn", SCHEMA)[0] == _payload()


class TestStore:
    def test_staging_name_clash(self, tmp_path):
        """A stale artifact at a fixed staging name (``<key>.tmp``) must
        not matter: every writer stages into its own mkstemp file."""
        (tmp_path / "k.tmp").mkdir()
        assert envelope.store(tmp_path, "k", SCHEMA, _payload()) \
            == envelope.STORED
        assert envelope.load(tmp_path, "k", SCHEMA)[0] == _payload()

    def test_no_temp_files_left(self, tmp_path):
        envelope.store(tmp_path, "k", SCHEMA, _payload())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]

    def test_unserialisable_payload_writes_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            envelope.store(tmp_path, "k", SCHEMA, {"value": object()})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_cleans_up(self, tmp_path, monkeypatch):
        def refuse(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(atomicio.os, "fsync", refuse)
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert envelope.store(tmp_path, "k", SCHEMA, _payload()) \
                == envelope.STORE_FAILED
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_cleans_up(self, tmp_path, monkeypatch):
        real_replace = os.replace

        def refuse(src, dst):
            if str(dst).endswith("k.json"):
                raise OSError(30, "Read-only file system")
            return real_replace(src, dst)

        monkeypatch.setattr(atomicio.os, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert envelope.store(tmp_path, "k", SCHEMA, _payload()) \
                == envelope.STORE_FAILED
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_warns_once(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(atomicio.tempfile, "mkstemp", refuse)
        match = re.escape(f"cache directory {tmp_path} is not writable")
        with pytest.warns(RuntimeWarning, match=match):
            assert envelope.store(tmp_path, "k1", SCHEMA, _payload()) \
                == envelope.STORE_FAILED
        # later stores are skipped without a second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert envelope.store(tmp_path, "k2", SCHEMA, _payload()) is None
        assert envelope.load(tmp_path, "k1", SCHEMA) == (None,
                                                         envelope.MISS)
