"""Tests for the characterisation disk cache: keys, the point type that
names an entry, the typed load and store as the runners call them, and
entries written by earlier versions.  The envelope module on its own is
tested in ``tests/exec/test_envelope.py``."""

import json
import os
import warnings

import pytest

from repro.cells import PowerDomain
from repro.characterize import cache
from repro.characterize.cache import CellPoint
from repro.characterize.data import CellCharacterization
from repro.characterize.runner import characterize_cell
from repro.devices.mtj import MTJ_FIG9B, MTJ_TABLE1
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from repro.errors import CharacterizationError
from repro.exec import atomicio, envelope
from repro.pg.modes import OperatingConditions


def _record():
    return CellCharacterization(
        kind="6t", n_wordlines=32, vdd=0.9, frequency=300e6,
        e_read=1e-15, e_write=1e-15, p_normal=1e-9, p_sleep=0.5e-9,
        p_shutdown=0.5e-9, p_shutdown_nominal=0.5e-9,
    )


class TestCacheKey:
    def test_deterministic(self):
        k1 = cache.cache_key(kind="nv", cond=OperatingConditions(),
                             domain=PowerDomain(512, 32))
        k2 = cache.cache_key(kind="nv", cond=OperatingConditions(),
                             domain=PowerDomain(512, 32))
        assert k1 == k2

    def test_sensitive_to_inputs(self):
        base = cache.cache_key(kind="nv", cond=OperatingConditions(),
                               domain=PowerDomain(512, 32))
        other_kind = cache.cache_key(kind="6t", cond=OperatingConditions(),
                                     domain=PowerDomain(512, 32))
        other_cond = cache.cache_key(
            kind="nv", cond=OperatingConditions(frequency=1e9),
            domain=PowerDomain(512, 32),
        )
        other_domain = cache.cache_key(kind="nv",
                                       cond=OperatingConditions(),
                                       domain=PowerDomain(64, 32))
        assert len({base, other_kind, other_cond, other_domain}) == 4

    def test_dataclass_type_disambiguates(self):
        """Two different dataclasses with equal fields hash differently."""
        a = cache.cache_key(x=MTJ_TABLE1)
        b = cache.cache_key(x=MTJ_TABLE1.with_(jc=1e10))
        assert a != b

    def test_runner_keys_are_pinned(self):
        """The default cell and NV-FF keys, as the previous cache code
        computed them: entries already on disk must keep hitting."""
        cond = OperatingConditions()
        assert CellPoint("nv", cond, PowerDomain(), NFET_20NM_HP,
                         PFET_20NM_HP, MTJ_TABLE1).key \
            == "c4751e156ca92d17fee3b45d"
        assert CellPoint("nvff", cond, None, NFET_20NM_HP, PFET_20NM_HP,
                         MTJ_TABLE1).key == "f0414b1a3dd8d25cb3d7dbb0"


class TestCellPoint:
    """One point type names a characterisation: Table I defaults, the
    cache key and the JSON form of the task queue and the serve wire."""

    POINTS = [
        CellPoint("nv"),
        CellPoint("6t", domain=PowerDomain(2048, 32)),
        CellPoint("nv", OperatingConditions().fast_variant(),
                  PowerDomain(32, 32), mtj=MTJ_FIG9B),
        CellPoint("6t", OperatingConditions().fast_variant(),
                  PowerDomain(32, 32), mtj=MTJ_FIG9B),
        CellPoint("nvff"),
    ]

    @pytest.mark.parametrize("point", POINTS,
                             ids=["nv", "6t-2048", "nv-fig9b", "6t-fig9b",
                                  "nvff"])
    def test_json_round_trip_keeps_point_and_key(self, point):
        wire = json.loads(json.dumps(point.to_params()))
        again = CellPoint.from_params(wire)
        assert again == point
        assert again.key == point.key

    def test_none_parts_take_the_table1_defaults(self):
        explicit = CellPoint("nv", OperatingConditions(), PowerDomain(),
                             NFET_20NM_HP, PFET_20NM_HP, MTJ_TABLE1)
        assert CellPoint("nv") == explicit
        assert CellPoint.from_params({"kind": "nv"}) == explicit
        assert CellPoint("nvff").domain is None

    def test_nvff_point_has_no_domain(self):
        with pytest.raises(CharacterizationError, match="no domain"):
            CellPoint("nvff", domain=PowerDomain())

    def test_unknown_kind_rejected(self):
        with pytest.raises(CharacterizationError, match="kind"):
            CellPoint("sram9t")

    def test_integral_numbers_fit_their_fields(self):
        default = CellPoint("nv")
        point = CellPoint.from_params({
            "kind": "nv", "cond": {"frequency": 300000000, "vdd": 0.9},
            "domain": {"n_wordlines": 512.0}})
        assert point == default and point.key == default.key
        assert type(point.cond.frequency) is float
        assert type(point.domain.n_wordlines) is int

    @pytest.mark.parametrize("params, match", [
        ({"domain": {"n_wordlines": 512.5}}, "bad 'domain'"),
        ({"cond": {"vdd": True}}, "bad 'cond'"),
        ({"domain": {"word_bits": False}}, "bad 'domain'"),
        ({"cond": {"vdd": "0.9"}}, "bad 'cond'"),
        ({"mtj": {"label": 7}}, "bad 'mtj'"),
        ({"cond": {"not_a_field": 1}}, "bad 'cond'"),
        ({"cond": [0.9]}, "'cond' must be a JSON object"),
    ])
    def test_bad_parts_rejected_by_name(self, params, match):
        with pytest.raises(CharacterizationError, match=match):
            CellPoint.from_params({"kind": "nv", **params})


class TestLoadStore:
    def test_roundtrip(self, tmp_path):
        record = _record()
        cache.store(tmp_path, "abc", record)
        assert cache.load(tmp_path, "abc") == record

    def test_missing_returns_none(self, tmp_path):
        assert cache.load(tmp_path, "missing") is None

    def test_disabled_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache.store(None, "abc", _record())  # no-op
        assert cache.load(None, "abc") is None
        assert list(tmp_path.iterdir()) == []

    def test_stale_schema_entry_quarantined(self, tmp_path):
        (tmp_path / "stale.json").write_text('{"unexpected": 1}')
        with pytest.warns(RuntimeWarning, match="stale.json"):
            assert cache.load(tmp_path, "stale") is None
        assert (tmp_path / envelope.CORRUPT_SUBDIR / "stale.json").exists()

    def test_old_schema_envelope_quarantined(self, tmp_path):
        """A well-formed envelope from an older schema is invalidated."""
        cache.store(tmp_path, "old", _record())
        path = tmp_path / "old.json"
        data = json.loads(path.read_text())
        assert data["schema"] == cache.CACHE_SCHEMA_VERSION
        data["schema"] = 4
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="schema"):
            assert cache.load(tmp_path, "old") is None
        assert (tmp_path / envelope.CORRUPT_SUBDIR / "old.json").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        """A flipped payload value no longer matches the checksum."""
        cache.store(tmp_path, "flip", _record())
        path = tmp_path / "flip.json"
        data = json.loads(path.read_text())
        data["payload"]["e_read"] = 123.0
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert cache.load(tmp_path, "flip") is None
        assert (tmp_path / envelope.CORRUPT_SUBDIR / "flip.json").exists()

    def test_quarantine_does_not_hide_good_entries(self, tmp_path):
        record = _record()
        cache.store(tmp_path, "good", record)
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.warns(RuntimeWarning):
            cache.load(tmp_path, "bad")
        assert cache.load(tmp_path, "good") == record

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        cache.store(target, "abc", _record())
        assert (target / "abc.json").exists()

    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="bad.json"):
            assert cache.load(tmp_path, "bad") is None
        assert not (tmp_path / "bad.json").exists()
        assert (tmp_path / envelope.CORRUPT_SUBDIR / "bad.json").exists()

    def test_loads_entry_in_the_indented_format(self, tmp_path):
        """Entries used to be written with ``indent=2``; they still hit."""
        record = _record()
        payload = json.loads(record.to_json())
        (tmp_path / "old.json").write_text(json.dumps(
            {"schema": cache.CACHE_SCHEMA_VERSION,
             "sha256": envelope.checksum(payload),
             "payload": payload},
            indent=2, sort_keys=True))
        assert cache.load(tmp_path, "old") == record


class TestUnwritableDir:
    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self, monkeypatch):
        monkeypatch.setattr(envelope, "_UNWRITABLE", set())

    def test_store_degrades_to_cache_off(self, tmp_path, monkeypatch):
        """An unwritable directory warns once, then goes quiet."""
        def refuse(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(atomicio.tempfile, "mkstemp", refuse)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.store(tmp_path, "ro1", _record())
        # second store: silently skipped, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.store(tmp_path, "ro2", _record())
        assert cache.load(tmp_path, "ro1") is None

    def test_failed_rename_degrades(self, tmp_path, monkeypatch):
        real_replace = os.replace

        def refuse(src, dst):
            if str(dst).endswith("ro.json"):
                raise OSError(30, "Read-only file system")
            return real_replace(src, dst)

        monkeypatch.setattr(atomicio.os, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.store(tmp_path, "ro", _record())
        # the staged temp file must not leak
        assert list(tmp_path.iterdir()) == []


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        """With no ``cache_dir``, the runner reads ``$REPRO_CACHE_DIR``:
        an entry stored there under the runner's key is what it returns
        (a hit, so nothing is simulated)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        record = _record()
        key = CellPoint("6t", OperatingConditions(), PowerDomain(),
                        NFET_20NM_HP, PFET_20NM_HP, MTJ_TABLE1).key
        cache.store(tmp_path, key, record)
        assert characterize_cell("6t") == record
