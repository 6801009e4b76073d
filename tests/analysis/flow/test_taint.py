"""Taint engine: traces, sanitizers, categories, determinism."""

import os
import random
import textwrap

from repro.analysis import render_json, render_text
from repro.analysis.flow import FlowSpecs, analyze_paths
from repro.analysis.flow.specs import DEFAULT_SANITIZERS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHAIN = os.path.join(FIXTURES, "chain")
SANITIZED = os.path.join(FIXTURES, "sanitized")


def analyze_source(tmp_path, source, name="mod.py"):
    target = tmp_path / name.replace(".py", "") / name
    target.parent.mkdir(exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return analyze_paths([str(target.parent)], FlowSpecs())


class TestInterproceduralTrace:
    def test_chain_fixture_reports_the_complete_hop_chain(self):
        findings = analyze_paths([CHAIN], FlowSpecs())
        assert len(findings) == 1
        f = findings[0]
        assert (f.rule, f.category) == ("DF001", "wall-clock")
        assert f.source == "time.time"
        assert f.sink == "repro.ops.routes.canonical_bytes"
        assert f.path.endswith("chain.py") and f.line == 28
        # The full source->sink journey, every hop as path:line.
        assert [(h.line, h.note) for h in f.trace] == [
            (16, "time.time() [source]"),
            (16, "-> stamp"),
            (17, "return"),
            (26, "returned by read_clock()"),
            (26, "-> raw"),
            (27, "argument to wrap()"),
            (20, "parameter 'value' of chain.wrap()"),
            (21, "-> payload"),
            (22, "return"),
            (27, "-> enriched"),
            (28, "repro.ops.routes.canonical_bytes() [sink]"),
        ]
        assert all(h.path.endswith("chain.py") for h in f.trace)

    def test_rendered_finding_carries_every_hop(self):
        finding = analyze_paths([CHAIN], FlowSpecs())[0]
        rendered = finding.render()
        assert rendered.count("\n") == len(finding.trace)
        assert "time.time() [source]" in rendered
        assert "[sink]" in rendered

    def test_taint_through_parameter_into_sink_argument(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            import time
            from repro.ops.routes import canonical_bytes

            def publish(payload):
                return canonical_bytes(payload)

            def emit():
                return publish({"at": time.time()})
        """)
        assert [f.rule for f in findings] == ["DF001"]
        notes = [h.note for h in findings[0].trace]
        assert "argument to publish()" in notes
        assert "parameter 'payload' of mod.publish()" in notes


class TestSanitizers:
    def test_sorted_mid_chain_kills_the_listing_flow(self):
        findings = analyze_paths([SANITIZED], FlowSpecs())
        # Only the raw-listing variant survives; its sorted sibling and
        # the marker-sanitized clock flow are erased.
        assert len(findings) == 1
        f = findings[0]
        assert (f.rule, f.source) == ("DF003", "os.listdir")
        assert f.line == 33

    def test_marker_comment_kills_the_flow_on_its_line(self, tmp_path):
        dirty = """\
            import time
            from repro.ops.routes import canonical_bytes

            def emit():
                stamp = time.time()
                return canonical_bytes({"stamp": stamp})
        """
        assert len(analyze_source(tmp_path, dirty)) == 1
        clean = dirty.replace(
            "time.time()",
            "time.time()  # darpaflow: sanitized=reviewed")
        assert analyze_source(tmp_path, clean, name="clean.py") == []

    def test_sorted_does_not_clear_a_wall_clock_value(self, tmp_path):
        # sorted() erases *order* taints only: sorting a list holding a
        # clock reading leaves the bytes just as nondeterministic.
        findings = analyze_source(tmp_path, """\
            import time
            from repro.ops.routes import canonical_bytes

            def emit():
                series = sorted([time.time()])
                return canonical_bytes({"series": series})
        """)
        assert [f.rule for f in findings] == ["DF001"]

    def test_injectable_listing_result_is_clean(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            from repro.rundir import injectable_listing
            from repro.ops.routes import canonical_bytes

            def emit(run_dir):
                return canonical_bytes({"names": injectable_listing(run_dir)})
        """)
        assert findings == []

    def test_configured_sanitizer_erases_a_value_taint(self, tmp_path):
        target = tmp_path / "mod" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n"
            "from repro.ops.routes import canonical_bytes\n"
            "from mylib import canon\n\n"
            "def emit():\n"
            "    stamp = canon(time.time())\n"
            "    return canonical_bytes({'stamp': stamp})\n")
        dirty = analyze_paths([str(target.parent)], FlowSpecs())
        assert [f.rule for f in dirty] == ["DF001"]
        specs = FlowSpecs(sanitizers={**DEFAULT_SANITIZERS,
                                      "mylib.canon": None})
        assert analyze_paths([str(target.parent)], specs) == []


class TestCategories:
    def test_seeded_constructor_is_clean_unseeded_is_not(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            import random
            from repro.ops.routes import canonical_bytes

            def emit_seeded(seed):
                rng = random.Random(seed)
                return canonical_bytes({"draw": rng})

            def emit_unseeded():
                rng = random.Random()
                return canonical_bytes({"draw": rng})
        """)
        assert [f.rule for f in findings] == ["DF002"]
        assert findings[0].source == "random.Random"

    def test_env_identity_and_scheduling_sources(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            import os
            import uuid
            from repro.ops.routes import canonical_bytes

            def emit(obj):
                return canonical_bytes({
                    "env": os.environ.get("HOME"),
                    "ident": id(obj),
                    "run": str(uuid.uuid4()),
                })
        """)
        assert sorted(f.rule for f in findings) == \
            ["DF005", "DF006", "DF007"]

    def test_set_iteration_order_reaches_sink(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            from repro.ops.routes import canonical_bytes

            def emit(items):
                seen = set(items)
                return canonical_bytes({"seen": list(seen)})

            def emit_sorted(items):
                return canonical_bytes({"seen": sorted(set(items))})
        """)
        assert [f.rule for f in findings] == ["DF004"]
        assert findings[0].trace[0].line == 4

    def test_pathlib_iterdir_is_a_listing_source(self, tmp_path):
        findings = analyze_source(tmp_path, """\
            from pathlib import Path
            from repro.ops.routes import canonical_bytes

            def emit(root):
                names = [p.name for p in Path(root).iterdir()]
                return canonical_bytes({"names": names})
        """)
        assert [f.rule for f in findings] == ["DF003"]
        assert findings[0].source == ".iterdir"


class TestDeterminism:
    def test_reports_byte_identical_for_any_input_path_order(self):
        trees = [CHAIN, SANITIZED,
                 os.path.join(CHAIN, "chain.py"),
                 os.path.join(SANITIZED, "sanitized.py")]
        baseline_text = baseline_json = None
        rng = random.Random(1234)
        for _ in range(6):
            rng.shuffle(trees)
            findings = analyze_paths(list(trees), FlowSpecs())
            text = render_text(findings, "flow")
            payload = render_json(findings)
            if baseline_text is None:
                baseline_text, baseline_json = text, payload
            assert text == baseline_text
            assert payload == baseline_json

    def test_parse_error_becomes_a_df000_finding(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        findings = analyze_paths([str(tmp_path)], FlowSpecs())
        assert [f.rule for f in findings] == ["DF000"]
        assert "does not parse" in findings[0].message
