"""``verify_source`` over a tree: one serial pass on the calling thread,
each finding at its own module's path, and no file written."""

import textwrap
import threading

from repro.verify import verify_source


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


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


def test_identical_text_at_two_paths_keeps_its_own_location(tmp_path):
    """A second module with the same text gets its own findings, which
    name its file, not the first one's."""
    body = 'def window():\n    return float("10n")\n'
    for stem in ("first", "second"):
        write_tree(tmp_path, {f"{stem}/mod.py": body})
        report = verify_source([str(tmp_path / stem)])
        assert [d.code for d in report] == ["RV404"]
        assert report.diagnostics[0].target == str(tmp_path / stem / "mod.py")


def test_no_cache_dir_means_no_cache_io(tmp_path, monkeypatch):
    """Lint writes no file: not under the cache root, not in the
    working directory, not next to the modules."""
    write_tree(tmp_path, TREE)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    report = verify_source([str(tmp_path / "pkg")])
    assert [d.code for d in report] == ["RV404"]
    assert sorted(tmp_path.rglob("*")) == before


def test_cold_run_parses_on_the_calling_thread(tmp_path, monkeypatch):
    """A run parses every module serially, starting no thread.

    CPython 3.11's AST constructor is not thread-safe: concurrent
    ``ast.parse`` calls intermittently fail with ``SystemError: AST
    constructor recursion depth mismatch``.
    """
    write_tree(tmp_path, TREE)

    def no_threads(self):
        raise AssertionError("verify_source started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    report = verify_source([str(tmp_path / "pkg")])
    assert [d.code for d in report] == ["RV404"]
