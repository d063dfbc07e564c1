"""The incremental whole-program engine: warm runs parse nothing,
dependency-aware invalidation re-lints exactly the affected callers,
and the hardened cache envelope quarantines corruption."""

import json
import textwrap
import threading
import warnings

import pytest

from repro.verify import verify_source
from repro.verify import source as source_mod
from repro.verify.cache import (
    CACHE_SCHEMA_VERSION,
    CORRUPT_SUBDIR,
    entry_key,
    load,
    store,
)


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def snapshot(report):
    return [(d.code, d.target, d.subject,
             d.location.line if d.location else None, d.message)
            for d in report]


#: helper allocates a dense array; the caller invokes it from a loop
#: -> caller-side RV702 in caller.py, derived entirely from the helper's
#: out-of-loop allocation fact.
TREE = {
    "pkg/__init__.py": "",
    "pkg/helper.py": '''\
        import numpy as np


        def scratch(n):
            return np.zeros(n)
        ''',
    "pkg/caller.py": '''\
        from pkg.helper import scratch


        def sweep(points, n):
            out = []
            for _ in range(points):
                out.append(scratch(n))
            return out
        ''',
    "pkg/bystander.py": '''\
        def double(x):
            return 2.0 * x
        ''',
}


def test_warm_run_is_identical_and_parses_nothing(tmp_path, monkeypatch):
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in cold] == ["RV702"]

    def boom(self):
        raise AssertionError(f"warm run parsed {self.path}")

    monkeypatch.setattr(source_mod._Entry, "ensure_parsed", boom)
    warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert snapshot(warm) == snapshot(cold)


def test_callee_edit_relints_caller(tmp_path, monkeypatch):
    """Editing helper.py changes caller.py's facts digest: the caller
    is re-analysed (and its RV702 disappears) even though its own text
    — and hence its cache key — is unchanged."""
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in cold] == ["RV702"]

    # scratch no longer allocates an ndarray, so the caller's loop stops
    # paying a dense allocation per iteration.
    (tmp_path / "pkg" / "helper.py").write_text(textwrap.dedent('''\
        def scratch(n):
            return [0.0] * n
        '''))

    parsed = []
    original = source_mod._Entry.ensure_parsed

    def spy(self):
        parsed.append(self.name)
        return original(self)

    monkeypatch.setattr(source_mod._Entry, "ensure_parsed", spy)
    warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in warm] == []
    # The edited callee and the dependent caller were re-analysed...
    assert "pkg.helper" in parsed
    assert "pkg.caller" in parsed
    # ...the bystander (no fact dependence on helper) was not.
    assert "pkg.bystander" not in parsed


def test_caller_edit_does_not_relint_bystanders(tmp_path, monkeypatch):
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    verify_source([str(tmp_path / "pkg")], cache_dir=cache)

    caller = tmp_path / "pkg" / "caller.py"
    caller.write_text(caller.read_text() + "\n\nTAG = 1\n")

    parsed = []
    original = source_mod._Entry.ensure_parsed

    def spy(self):
        parsed.append(self.name)
        return original(self)

    monkeypatch.setattr(source_mod._Entry, "ensure_parsed", spy)
    warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in warm] == ["RV702"]
    # ensure_parsed memoizes: repeat calls for the same entry are fine,
    # other modules must never appear.
    assert set(parsed) == {"pkg.caller"}


def test_config_change_misses_the_cache(tmp_path):
    from repro.verify import VerifyConfig
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    n_entries = len(list(cache.glob("*.json")))
    disabled = verify_source([str(tmp_path / "pkg")],
                             VerifyConfig(disable=frozenset({"RV702"})),
                             cache_dir=cache)
    assert [d.code for d in disabled] == []
    # A different policy digest writes its own entries.
    assert len(list(cache.glob("*.json"))) > n_entries


def test_corrupt_entry_is_quarantined_and_relinted(tmp_path):
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    victim = sorted(cache.glob("*.json"))[0]
    victim.write_text("{ not json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert snapshot(warm) == snapshot(cold)
    assert any("discarding lint cache entry" in str(w.message)
               for w in caught)
    assert (cache / CORRUPT_SUBDIR / victim.name).exists()


def test_tampered_payload_fails_checksum(tmp_path):
    key = entry_key("x = 1\n", "cfg")
    store(tmp_path, key, {"summary": {"functions": {}}})
    path = tmp_path / f"{key}.json"
    envelope = json.loads(path.read_text())
    envelope["payload"]["summary"]["functions"] = {"evil": {}}
    path.write_text(json.dumps(envelope))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load(tmp_path, key) is None
    assert any("checksum mismatch" in str(w.message) for w in caught)


def test_schema_bump_invalidates(tmp_path):
    key = entry_key("x = 1\n", "cfg")
    store(tmp_path, key, {"summary": {}})
    path = tmp_path / f"{key}.json"
    envelope = json.loads(path.read_text())
    assert envelope["schema"] == CACHE_SCHEMA_VERSION
    envelope["schema"] = CACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(envelope))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert load(tmp_path, key) is None


def test_no_cache_dir_means_no_cache_io(tmp_path):
    write_tree(tmp_path, TREE)
    report = verify_source([str(tmp_path / "pkg")], cache_dir=None)
    assert [d.code for d in report] == ["RV702"]
    assert not list(tmp_path.glob("**/*.json"))


def test_cold_run_parses_on_the_calling_thread(tmp_path, monkeypatch):
    """A cold run parses every module serially, starting no thread.

    CPython 3.11's AST constructor is not thread-safe: concurrent
    ``ast.parse`` calls intermittently fail with ``SystemError: AST
    constructor recursion depth mismatch``.
    """
    write_tree(tmp_path, TREE)

    def no_threads(self):
        raise AssertionError("verify_source started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    report = verify_source([str(tmp_path / "pkg")], cache_dir=None)
    assert [d.code for d in report] == ["RV702"]
