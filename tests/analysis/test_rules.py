"""Golden tests: every rule against its positive/negative fixtures."""

import os

import pytest

from repro.analysis import (
    LintConfig,
    LintEngine,
    load_config,
    rules_for_ids,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: (fixture file, expected rule) — one seeded violation per rule.
DIRTY = [
    ("dl001_wall_clock.py", "DL001"),
    ("dl002_unseeded_rng.py", "DL002"),
    ("dl003_unordered_iteration.py", "DL003"),
    ("dl004_float_accumulation.py", "DL004"),
    ("dl005_swallowed_exception.py", "DL005"),
    ("dl006_mutable_default.py", "DL006"),
    ("dl007_matmul_reduction.py", "DL007"),
    ("dl008_unsorted_listing.py", "DL008"),
]


def engine() -> LintEngine:
    # Explicit default config: the repo's own [tool.darpalint] must not
    # leak into fixture expectations.
    return LintEngine(config=LintConfig())


class TestDirtyFixtures:
    @pytest.mark.parametrize("filename,rule", DIRTY,
                             ids=[rule for _, rule in DIRTY])
    def test_exactly_one_finding_of_the_expected_rule(self, filename, rule):
        path = os.path.join(FIXTURES, "dirty", filename)
        findings = engine().lint_file(path)
        assert [f.rule for f in findings] == [rule]
        assert findings[0].line > 0 and findings[0].message

    def test_dirty_tree_has_one_finding_per_rule(self):
        findings = engine().lint_paths([os.path.join(FIXTURES, "dirty")])
        assert sorted(f.rule for f in findings) == \
            ["DL001", "DL002", "DL003", "DL004", "DL005", "DL006",
             "DL007", "DL008"]

    @pytest.mark.parametrize("filename,rule", DIRTY,
                             ids=[rule for _, rule in DIRTY])
    def test_rule_filter_isolates_each_rule(self, filename, rule):
        eng = LintEngine(rules=rules_for_ids([rule]), config=LintConfig())
        findings = eng.lint_paths([os.path.join(FIXTURES, "dirty")])
        assert [f.rule for f in findings] == [rule]
        assert findings[0].path.endswith(filename)


class TestListingsAreReportedOnce:
    """A listing in a merge scope is DL008's alone; DL003 keeps sets."""

    @pytest.mark.parametrize("call", ["os.listdir(d)", "os.scandir(d)",
                                      "glob.glob(d)", "glob.iglob(d)"])
    def test_unsorted_listing_in_merge_scope_is_one_dl008(self, call):
        source = (f"import glob\nimport os\n\n\ndef merge_parts(d):\n"
                  f"    out = []\n"
                  f"    for n in {call}:\n"
                  f"        out.append(n)\n"
                  f"    return out\n")
        findings = engine().lint_source(source, path="merge.py")
        assert [f.rule for f in findings] == ["DL008"]

    def test_set_of_a_listing_in_merge_scope_is_still_dl003(self):
        source = ("import os\n\n\ndef merge_parts(d):\n"
                  "    return [x for x in set(os.listdir(d))]\n")
        findings = engine().lint_source(source, path="merge.py")
        assert [f.rule for f in findings] == ["DL003"]


class TestCleanFixture:
    def test_near_miss_patterns_stay_silent(self):
        findings = engine().lint_paths([os.path.join(FIXTURES, "clean")])
        assert findings == []


class TestSuppressions:
    def test_inline_disable_comments_suppress(self):
        findings = engine().lint_paths([os.path.join(FIXTURES, "suppressed")])
        assert findings == []

    def test_suppressions_are_not_vacuous(self):
        # Stripping the markers must resurface the findings, proving
        # the file really contains violations the comments hide.
        path = os.path.join(FIXTURES, "suppressed", "suppressed.py")
        with open(path) as fp:
            source = fp.read().replace("darpalint: disable", "nope")
        findings = engine().lint_source(source, path="suppressed.py")
        assert sorted(f.rule for f in findings) == ["DL001", "DL005"]


class TestAllowlists:
    def test_fixture_config_allowlists_and_excludes(self):
        config = load_config(
            os.path.join(FIXTURES, "allowlisted", "pyproject.toml"))
        eng = LintEngine(config=config)
        findings = eng.lint_paths([os.path.join(FIXTURES, "allowlisted")])
        assert findings == []

    def test_without_config_the_same_tree_is_dirty(self):
        findings = engine().lint_paths([os.path.join(FIXTURES, "allowlisted")])
        by_file = sorted((os.path.basename(f.path), f.rule)
                         for f in findings)
        assert by_file == [("generated_skip_me.py", "DL001"),
                           ("timing_helper.py", "DL001")]
