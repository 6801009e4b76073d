"""Engine mechanics: determinism, suppressions, parse errors."""

import json
import os
import random

from repro.analysis import (
    LintEngine,
    PARSE_ERROR_RULE,
    iter_python_files,
    render_json,
    render_text,
)
from repro.analysis.engine import _collect_suppressions

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ALL_TREES = [os.path.join(FIXTURES, name)
             for name in ("dirty", "clean", "suppressed")]
WALLCLOCK = os.path.join("src", "repro", "wallclock.py")
DL001_MARKER = "  # darpalint: disable=DL001"


def engine() -> LintEngine:
    return LintEngine()


class TestDeterminism:
    def test_findings_identical_for_any_traversal_order(self):
        want = engine().lint_paths(list(ALL_TREES))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(ALL_TREES)
            rng.shuffle(shuffled)
            assert engine().lint_paths(shuffled) == want

    def test_reports_are_byte_identical_across_shuffles(self):
        a = engine().lint_paths(list(ALL_TREES))
        b = engine().lint_paths(list(reversed(ALL_TREES)))
        assert render_json(a) == render_json(b)
        assert render_text(a) == render_text(b)

    def test_overlapping_paths_deduplicate(self):
        dirty = os.path.join(FIXTURES, "dirty")
        once = engine().lint_paths([dirty])
        twice = engine().lint_paths(
            [dirty, os.path.join(dirty, "dl001_wall_clock.py"), dirty])
        assert twice == once

    def test_iter_python_files_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_python_files([str(tmp_path)])
        assert [os.path.basename(p) for p in files] == ["a.py", "b.py"]


class TestParseErrors:
    def test_syntax_error_becomes_dl000_finding(self):
        findings = engine().lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in findings[0].message

    def test_json_report_shape(self):
        findings = engine().lint_source("import time\ntime.time()\n",
                                        path="x.py")
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["count"] == 1
        assert payload["by_rule"] == {"DL001": 1}
        assert payload["findings"][0]["path"] == "x.py"
        assert payload["findings"][0]["line"] == 2


class TestSuppressionParsing:
    def test_multiple_rules_and_spacing(self):
        lines = [
            "x = 1  # darpalint: disable=DL001, DL003",
            "y = 2  #darpalint: disable=all",
            "z = 3  # unrelated comment",
        ]
        got = _collect_suppressions(lines)
        assert got == {1: {"DL001", "DL003"}, 2: {"ALL"}}


class TestScopeAndAliases:
    def test_aliased_imports_resolve(self):
        source = (
            "import time as t\n"
            "from time import perf_counter as pc\n"
            "def f():\n"
            "    return t.time() + pc()\n"
        )
        findings = engine().lint_source(source, path="alias.py")
        assert [f.rule for f in findings] == ["DL001", "DL001"]

    def test_numpy_alias_resolves_for_dl002(self):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.rand(3)\n"
        )
        findings = engine().lint_source(source, path="np.py")
        assert [f.rule for f in findings] == ["DL002"]

    def test_dl003_only_fires_in_configured_scopes(self):
        body = "    out = []\n    for k in d.keys():\n        out.append(k)\n    return out\n"
        merge = f"def merge_rows(d):\n{body}"
        other = f"def build_rows(d):\n{body}"
        assert [f.rule for f in engine().lint_source(merge)] == ["DL003"]
        assert engine().lint_source(other) == []

    def test_dl003_respects_sorted_wrapper_over_generators(self):
        source = (
            "def merge_parts(d):\n"
            "    return [k for k in sorted(k2 for k2 in d.keys())]\n"
        )
        assert engine().lint_source(source) == []

    def test_dl004_assign_form_detects_self_accumulation(self):
        source = (
            "def merge_sums(merged, hist):\n"
            "    merged['sum'] = float(merged['sum']) + float(hist['sum'])\n"
        )
        findings = engine().lint_source(source)
        assert [f.rule for f in findings] == ["DL004"]
        # A plain non-accumulating float assignment stays silent.
        source_ok = (
            "def merge_sums(merged, hist):\n"
            "    merged['sum'] = float(hist['sum']) + 0.0\n"
        )
        assert engine().lint_source(source_ok) == []


class TestInlineMarkersAreTheOnlyExemption:
    def test_wallclock_marker_is_the_one_dl001_exemption(self):
        with open(WALLCLOCK, encoding="utf-8") as fp:
            source = fp.read()
        lines = source.splitlines()
        marked = [n for n, line in enumerate(lines, 1)
                  if DL001_MARKER in line]
        assert len(marked) == 1
        assert "time.perf_counter()" in lines[marked[0] - 1]
        assert engine().lint_source(source, path=WALLCLOCK) == []
        findings = engine().lint_source(
            source.replace(DL001_MARKER, ""), path=WALLCLOCK)
        assert [(f.rule, f.line) for f in findings] == \
            [("DL001", marked[0])]
