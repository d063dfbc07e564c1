"""The ``repro fix`` codemod engine: plans, rewrites, idempotency.

Each fixable finding must turn into a byte-exact edit whose application
removes the finding (so a second run is a no-op); everything the
planner cannot prove safe must be skipped with a reason, never guessed.
"""

import textwrap

import pytest

from repro.cli import main
from repro.verify import verify_source
from repro.verify.fix import (
    Edit,
    apply_edits,
    plan_fixes,
    rewritten_texts,
    unified_diff,
)


def write_module(tmp_path, text, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def fix_cycle(tmp_path, text, name="mod.py"):
    """Lint, plan, rewrite; return (plans, new text or None)."""
    path = write_module(tmp_path, text, name)
    report = verify_source([str(path)])
    plans = plan_fixes(report)
    texts = rewritten_texts(plans)
    return plans, texts.get(str(path), (None, None))[1]


# -- apply_edits mechanics ---------------------------------------------------


def test_apply_edits_orders_bottom_up():
    text = "a\nb\nc\n"
    edits = [
        Edit(kind="insert-before", line=1, text=("pre",)),
        Edit(kind="replace-lines", line=2, end_line=2,
             text=("B1", "B2")),
        Edit(kind="insert-before", line=3, text=("mid",)),
    ]
    assert apply_edits(text, edits) == "pre\na\nB1\nB2\nmid\nc\n"


def test_apply_edits_span_before_line_edits():
    text = "x = old()\ny\n"
    edits = [
        Edit(kind="replace-span", line=1, col=4, end_col=9,
             span_text="new()"),
        Edit(kind="insert-before", line=1, text=("pre",)),
    ]
    assert apply_edits(text, edits) == "pre\nx = new()\ny\n"


def test_apply_edits_preserves_missing_trailing_newline():
    assert apply_edits("a\nb", [Edit(kind="replace-lines", line=2,
                                     end_line=2, text=("B",))]) == "a\nB"


# -- RV702: dense allocation hoists ------------------------------------------


def test_rv702_buffer_hoist(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        import numpy as np


        def accumulate(n, steps):
            total = 0.0
            for _ in range(steps):
                scratch = np.zeros(n)
                scratch[0] = 1.0
                total += float(scratch.sum())
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert plan.fixable
    assert "scratch_buf" in plan.description
    assert "    scratch_buf = np.zeros(n)\n" \
           "    for _ in range(steps):\n" \
           "        scratch = scratch_buf\n" \
           "        scratch.fill(0.0)\n" \
           "        scratch[0] = 1.0\n" in fixed


def test_rv702_pure_hoist_when_read_only(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        import numpy as np


        def weights(n, steps):
            total = 0.0
            for _ in range(steps):
                w = np.ones(n)
                total += float((w * 2.0).sum())
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert plan.fixable
    assert "read-only" in plan.description
    assert "    w = np.ones(n)\n    for _ in range(steps):\n" in fixed
    # The in-loop line is gone, not duplicated.
    assert fixed.count("np.ones(n)") == 1


def test_rv702_full_hoist_keeps_fill_value(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        import numpy as np


        def seed(n, steps):
            total = 0.0
            for _ in range(steps):
                x = np.full(n, 0.5)
                x[0] = 1.0
                total += float(x.sum())
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert plan.fixable
    assert "x_buf = np.full(n, 0.5)" in fixed
    assert "x.fill(0.5)" in fixed


def test_rv702_skips_loop_varying_arguments(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        import numpy as np


        def varying(steps):
            out = 0.0
            for k in range(steps):
                x = np.zeros(k)
                out += float(x.sum())
            return out
        ''')
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert not plan.fixable
    assert "loop-varying k" in plan.reason
    assert fixed is None


def test_rv702_skips_retained_arrays(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        import numpy as np


        def retained(n, steps):
            outputs = []
            for _ in range(steps):
                x = np.zeros(n)
                x[0] = 1.0
                outputs.append(x)
            return outputs
        ''')
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert not plan.fixable
    assert "may retain" in plan.reason
    assert fixed is None


def test_rv702_skips_callee_side_findings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    write_module(pkg, '''\
        import numpy as np


        def fresh(n):
            return np.zeros(n)
        ''', name="alloc.py")
    write_module(pkg, '''\
        from pkg.alloc import fresh


        def run(points, n):
            out = []
            for _ in range(points):
                out.append(fresh(n))
            return out
        ''', name="sweep.py")
    plans = plan_fixes(verify_source([str(pkg)]))
    (plan,) = [p for p in plans if p.code == "RV702"]
    assert not plan.fixable
    assert "callee" in plan.reason


# -- RV703: invariant-call hoist ---------------------------------------------


def test_rv703_hoists_for_iterable_via_list(tmp_path):
    # elements() returns a one-shot iterator, so the hoist must
    # materialise it — a bare `x = circuit.elements()` above the loop
    # would be exhausted after the first outer iteration.
    plans, fixed = fix_cycle(tmp_path, '''\
        def rebuild(circuit, points):
            total = 0
            for _ in range(points):
                for element in circuit.elements():
                    total += element
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV703"]
    assert plan.fixable
    assert "    circuit_elements = list(circuit.elements())\n" \
           "    for _ in range(points):\n" \
           "        for element in circuit_elements:\n" in fixed


def test_rv703_skips_iterator_in_value_context(tmp_path):
    # Not a for-loop iterable: binding the iterator once and re-using
    # it would change behaviour, so the planner must refuse.
    plans, fixed = fix_cycle(tmp_path, '''\
        def rebuild(circuit, points):
            total = 0
            for _ in range(points):
                total += len(circuit.elements())
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV703"]
    assert not plan.fixable
    assert "one-shot iterator" in plan.reason
    assert fixed is None


def test_rv703_hoists_stable_value_call(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        def rebuild(solver, points):
            total = 0
            for _ in range(points):
                total += solver.compile()
            return total
        ''')
    (plan,) = [p for p in plans if p.code == "RV703"]
    assert plan.fixable
    assert "    solver_compile = solver.compile()\n" \
           "    for _ in range(points):\n" \
           "        total += solver_compile\n" in fixed


def test_rv703_fresh_name_avoids_collisions(tmp_path):
    plans, fixed = fix_cycle(tmp_path, '''\
        def rebuild(circuit, points):
            circuit_elements = None
            total = 0
            for _ in range(points):
                for element in circuit.elements():
                    total += element
            return total, circuit_elements
        ''')
    (plan,) = [p for p in plans if p.code == "RV703"]
    assert plan.fixable
    assert "circuit_elements2 = list(circuit.elements())" in fixed
    assert "for element in circuit_elements2:" in fixed


# -- end-to-end: fixes remove their findings, rewrites are idempotent --------


FIXABLE_MODULE = '''\
    import numpy as np


    def accumulate(circuit, n, steps):
        total = 0.0
        for _ in range(steps):
            scratch = np.zeros(n)
            scratch[0] = 1.0
            total += float(scratch.sum())
            for element in circuit.elements():
                total += element
        return total
    '''


def test_fixes_remove_their_findings(tmp_path):
    path = write_module(tmp_path, FIXABLE_MODULE)
    plans = plan_fixes(verify_source([str(path)]))
    assert {p.code for p in plans if p.fixable} == {"RV702", "RV703"}
    texts = rewritten_texts(plans)
    path.write_text(texts[str(path)][1])
    replans = plan_fixes(verify_source([str(path)]))
    assert [p for p in replans if p.fixable] == []


def test_rewrite_is_idempotent(tmp_path):
    path = write_module(tmp_path, FIXABLE_MODULE)
    texts = rewritten_texts(plan_fixes(verify_source([str(path)])))
    first = texts[str(path)][1]
    path.write_text(first)
    again = rewritten_texts(plan_fixes(verify_source([str(path)])))
    assert again == {}


def test_unified_diff_labels_paths():
    diff = unified_diff("pkg/mod.py", "a\n", "b\n")
    assert "--- a/pkg/mod.py" in diff
    assert "+++ b/pkg/mod.py" in diff


# -- CLI ---------------------------------------------------------------------


class TestFixCli:
    def test_check_mode_prints_diff_and_fails(self, tmp_path, capsys):
        path = write_module(tmp_path, FIXABLE_MODULE)
        assert main(["fix", "--no-cache", str(path)]) == 1
        out = capsys.readouterr().out
        assert "mechanically fixable" in out
        assert "+        scratch = scratch_buf" in out
        assert path.read_text() == textwrap.dedent(FIXABLE_MODULE)

    def test_apply_rewrites_then_check_is_clean(self, tmp_path,
                                                capsys):
        path = write_module(tmp_path, FIXABLE_MODULE)
        assert main(["fix", "--no-cache", "--apply", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rewrote" in out
        assert "scratch_buf" in path.read_text()
        assert main(["fix", "--no-cache", str(path)]) == 0
        assert "nothing mechanically fixable" in capsys.readouterr().out

    def test_rules_filter(self, tmp_path, capsys):
        path = write_module(tmp_path, FIXABLE_MODULE)
        assert main(["fix", "--no-cache", "--rules", "RV703",
                     "--apply", str(path)]) == 0
        text = path.read_text()
        assert "circuit_elements" in text
        assert "scratch_buf" not in text

    def test_fix_after_lint_source_hits_its_cache(self, tmp_path, capsys,
                                                   monkeypatch):
        """``fix`` lints the same project as ``lint-source`` (same task
        roots, same policy), so it reuses the entries the lint wrote."""
        from repro.verify import callgraph

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = write_module(tmp_path, FIXABLE_MODULE)
        assert main(["lint-source", str(path)]) == 0
        summarized = []
        original = callgraph.summarize_module

        def spy(module, modname):
            summarized.append(modname)
            return original(module, modname)

        monkeypatch.setattr(callgraph, "summarize_module", spy)
        assert main(["fix", "--check", str(path)]) == 1
        assert summarized == []
        assert "mechanically fixable" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = write_module(tmp_path, FIXABLE_MODULE)
        assert main(["fix", "--no-cache", "--rules", "RV401",
                     str(path)]) == 2
        assert "no codemod for RV401" in capsys.readouterr().err

    def _solver_module(self, tmp_path):
        # A path under src/repro/analysis triggers the equivalence
        # gate on --apply.
        sub = tmp_path / "src" / "repro" / "analysis"
        sub.mkdir(parents=True)
        return write_module(sub, FIXABLE_MODULE)

    def test_apply_gate_failure_reverts_rewrites(self, tmp_path,
                                                 capsys, monkeypatch):
        import subprocess

        path = self._solver_module(tmp_path)
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(list(cmd))
            return subprocess.CompletedProcess(
                cmd, returncode=1, stdout="fail pg-rail-tran drift\n",
                stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert main(["fix", "--no-cache", "--apply", str(path)]) == 2
        assert "reverted" in capsys.readouterr().err
        assert path.read_text() == textwrap.dedent(FIXABLE_MODULE)
        # The gate must run in a fresh interpreter: this process
        # imported the solver before the rewrite, so an in-process
        # check would certify stale code.
        assert calls[0][1:] == ["-m", "repro", "equiv", "run",
                                "--strict"]

    def test_apply_gate_pass_keeps_rewrites(self, tmp_path, capsys,
                                            monkeypatch):
        import subprocess

        path = self._solver_module(tmp_path)
        monkeypatch.setattr(
            subprocess, "run",
            lambda cmd, **kw: subprocess.CompletedProcess(
                cmd, returncode=0, stdout="gate: PASS\n", stderr=""))
        assert main(["fix", "--no-cache", "--apply", str(path)]) == 0
        out = capsys.readouterr().out
        assert "equivalence gate passed" in out
        assert "scratch_buf" in path.read_text()

    def test_baseline_suppresses_fixables(self, tmp_path, capsys):
        # Info-level inventories are never baselined; RV900 is a warning.
        path = write_module(tmp_path, '''\
            import json
            from pathlib import Path


            def save(cache_dir, key, payload):
                path = Path(cache_dir) / f"{key}.json"
                path.write_text(json.dumps(payload))
            ''')
        baseline = tmp_path / "baseline.json"
        assert main(["lint-source", "--no-cache", str(path),
                     "--update-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["fix", "--no-cache", "--baseline", str(baseline),
                     str(path)]) == 0
        assert "nothing mechanically fixable" \
            in capsys.readouterr().out


# -- RV900: bare durable write_text -> atomic_write_text ---------------------


class TestRv900Codemod:

    def test_write_text_rewritten_with_import(self, tmp_path):
        plans, after = fix_cycle(tmp_path, '''\
            import json
            from pathlib import Path


            def save(cache_dir, key, payload):
                path = Path(cache_dir) / f"{key}.json"
                path.write_text(json.dumps(payload))
            ''')
        rv900 = [p for p in plans if p.code == "RV900"]
        assert rv900 and rv900[0].fixable
        assert "atomic_write_text(path, json.dumps(payload))" in after
        assert "from repro.exec.atomicio import atomic_write_text" \
            in after
        assert "write_text(" not in after.replace("atomic_write_text(",
                                                  "")

    def test_rewrite_is_idempotent(self, tmp_path):
        _plans, after = fix_cycle(tmp_path, '''\
            import json
            from pathlib import Path


            def save(cache_dir, key, payload):
                path = Path(cache_dir) / f"{key}.json"
                path.write_text(json.dumps(payload))
            ''')
        path = write_module(tmp_path, after, name="mod2.py")
        report = verify_source([str(path)])
        assert "RV900" not in [d.code for d in report]
        plans = plan_fixes(report)
        assert not rewritten_texts(plans)

    def test_encoding_keyword_is_threaded(self, tmp_path):
        plans, after = fix_cycle(tmp_path, '''\
            def save(cache_path, text):
                cache_path.write_text(text, encoding="latin-1")
            ''')
        assert 'atomic_write_text(cache_path, text, ' \
               'encoding="latin-1")' in after

    def test_existing_import_not_duplicated(self, tmp_path):
        _plans, after = fix_cycle(tmp_path, '''\
            from repro.exec.atomicio import atomic_write_text


            def save(cache_path, text, other_path, more):
                atomic_write_text(cache_path, text)
                other_path = cache_path.with_suffix(".bak")
                other_path.write_text(more)
            ''')
        assert after.count(
            "from repro.exec.atomicio import atomic_write_text") == 1

    def test_open_writer_skipped_with_reason(self, tmp_path):
        plans, after = fix_cycle(tmp_path, '''\
            def save(journal_path, lines):
                with open(journal_path, "w") as fh:
                    fh.write("\\n".join(lines))
            ''')
        rv900 = [p for p in plans if p.code == "RV900"]
        assert rv900 and not rv900[0].fixable
        assert "structural rewrite" in rv900[0].reason
        assert after is None
