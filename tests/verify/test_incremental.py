"""The incremental per-module engine: warm runs parse nothing, an edit
re-lints only the edited module, and corrupt, tampered or stale-schema
entries go through the shared cache envelope."""

import json
import textwrap
import threading
import warnings

from repro.exec.envelope import CORRUPT_SUBDIR
from repro.verify import verify_source
from repro.verify import source as source_mod


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def snapshot(report):
    return [(d.code, d.target, d.subject,
             d.location.line if d.location else None, d.message)
            for d in report]


#: caller.py feeds a raw SPICE quantity string to float() -> one RV404;
#: helper.py and bystander.py are clean.
TREE = {
    "pkg/__init__.py": "",
    "pkg/helper.py": '''\
        def scratch(n):
            return [0.0] * n
        ''',
    "pkg/caller.py": '''\
        from pkg.helper import scratch


        def window(n):
            return scratch(n), float("10n")
        ''',
    "pkg/bystander.py": '''\
        def double(x):
            return 2.0 * x
        ''',
}


def spy_on_parses(monkeypatch):
    """Record the dotted name of every module ``verify_source`` parses."""
    parsed = []
    original = source_mod.SourceModule

    def spy(text, path=""):
        parsed.append(source_mod.module_name_for(path))
        return original(text, path=path)

    monkeypatch.setattr(source_mod, "SourceModule", spy)
    return parsed


def test_warm_run_is_identical_and_parses_nothing(tmp_path, monkeypatch):
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in cold] == ["RV404"]

    def boom(text, path=""):
        raise AssertionError(f"warm run parsed {path}")

    monkeypatch.setattr(source_mod, "SourceModule", boom)
    warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert snapshot(warm) == snapshot(cold)


def test_identical_text_at_two_paths_keeps_its_own_location(tmp_path):
    """The cache key includes the path: a second module with the same
    text must not get the first one's findings, which name its file."""
    body = 'def window():\n    return float("10n")\n'
    cache = tmp_path / "cache"
    for stem in ("first", "second"):
        write_tree(tmp_path, {f"{stem}/mod.py": body})
        report = verify_source([str(tmp_path / stem)], cache_dir=cache)
        assert [d.code for d in report] == ["RV404"]
        assert report.diagnostics[0].target == str(tmp_path / stem / "mod.py")


def test_caller_edit_does_not_relint_bystanders(tmp_path, monkeypatch):
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    verify_source([str(tmp_path / "pkg")], cache_dir=cache)

    caller = tmp_path / "pkg" / "caller.py"
    caller.write_text(caller.read_text() + "\n\nTAG = 1\n")

    parsed = spy_on_parses(monkeypatch)
    warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert [d.code for d in warm] == ["RV404"]
    # Only the edited module is parsed again; the others are served
    # from the cache.
    assert set(parsed) == {"pkg.caller"}


def test_config_change_misses_the_cache(tmp_path):
    from repro.verify import VerifyConfig
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    n_entries = len(list(cache.glob("*.json")))
    disabled = verify_source([str(tmp_path / "pkg")],
                             VerifyConfig(disable=frozenset({"RV404"})),
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
    assert any(f"discarding cache entry {victim}" in str(w.message)
               for w in caught)
    assert (cache / CORRUPT_SUBDIR / victim.name).exists()


def entries_by_module(cache):
    """The lint-cache files under ``cache``, by module name."""
    return {json.loads(path.read_text())["payload"]["name"]: path
            for path in cache.glob("*.json")}


def test_tampered_payload_fails_checksum(tmp_path):
    """An entry edited without updating its checksum — here the caller's
    cached RV404 is dropped — is quarantined and re-linted, not served."""
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    path = entries_by_module(cache)["pkg.caller"]
    data = json.loads(path.read_text())
    assert data["payload"]["source_diags"]
    data["payload"]["source_diags"] = []
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert snapshot(warm) == snapshot(cold)
    assert any("checksum mismatch" in str(w.message) for w in caught)
    assert (cache / CORRUPT_SUBDIR / path.name).exists()


def test_schema_bump_invalidates(tmp_path, monkeypatch):
    """Entries stamped with another schema number are not served: every
    module is parsed again."""
    write_tree(tmp_path, TREE)
    cache = tmp_path / "cache"
    cold = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    entries = entries_by_module(cache)
    schema = source_mod.CACHE_SCHEMA_VERSION
    for path in entries.values():
        data = json.loads(path.read_text())
        assert data["schema"] == schema
        data["schema"] = schema + 1
        path.write_text(json.dumps(data))

    parsed = spy_on_parses(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = verify_source([str(tmp_path / "pkg")], cache_dir=cache)
    assert snapshot(warm) == snapshot(cold)
    assert set(parsed) == set(entries)
    assert sum(f"schema {schema + 1} != {schema}" in str(w.message)
               for w in caught) == len(entries)


def test_no_cache_dir_means_no_cache_io(tmp_path):
    write_tree(tmp_path, TREE)
    report = verify_source([str(tmp_path / "pkg")], cache_dir=None)
    assert [d.code for d in report] == ["RV404"]
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
    assert [d.code for d in report] == ["RV404"]
