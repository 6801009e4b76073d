"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main

OPS_FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "ops", "fixtures", "run")
OPS_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "ops", "goldens")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["definitely-not-a-command"])
        assert excinfo.value.code == 2

    def test_regress_requires_both_files(self, capsys):
        # Through main(): the top-level parser declares no regress option,
        # so only the forwarded module parser can report the missing one.
        with pytest.raises(SystemExit) as excinfo:
            main(["regress", "--baseline", "b.json"])
        assert excinfo.value.code == 2
        assert "required: --fresh" in capsys.readouterr().err

    def test_dataset_command(self):
        args = build_parser().parse_args(["dataset"])
        assert args.command == "dataset"

    def test_fleet_option_defaults(self):
        args = build_parser().parse_args(["slo"])
        assert args.apps == 8 and args.ct == 200.0
        assert not args.storm and not args.fail_on_alert

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.epochs == 80
        assert args.output == "darpa_model.npz"

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["--seed", "3", "simulate", "--apps", "7", "--ct", "100"])
        assert args.seed == 3 and args.apps == 7 and args.ct == 100.0


class TestCommands:
    def test_dataset_runs(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "632 apps" in out

    def test_survey_runs(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "7.49" in out  # AGO mean rating

    def test_simulate_oracle_runs(self, capsys):
        assert main(["simulate", "--apps", "2"]) == 0
        out = capsys.readouterr().out
        assert "screens analyzed" in out

    def test_train_and_evaluate_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "tiny.npz"
        rc = main(["train", "--epochs", "2", "--limit", "12",
                   "--output", str(model_path), "--no-eval"])
        assert rc == 0
        assert model_path.exists()
        state = dict(np.load(model_path))
        assert any(k.startswith("bn") for k in state)
        rc = main(["evaluate", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "All" in out


class TestTelemetryCommands:
    def test_slo_zero_fault_is_quiet(self, capsys):
        assert main(["slo", "--apps", "4", "--fail-on-alert"]) == 0
        out = capsys.readouterr().out
        assert "reaction_p95" in out
        assert "no burn-rate alerts" in out
        assert "VIOLATED" not in out

    def test_slo_storm_alerts_and_fails(self, tmp_path, capsys):
        report_path = tmp_path / "slo.json"
        rc = main(["slo", "--apps", "4", "--storm", "--fail-on-alert",
                   "--json", str(report_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "burn-rate alert" in out
        import json
        report = json.loads(report_path.read_text())
        assert report["alerts"] and not report["all_met"]

    def test_metrics_exposition(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.prom"
        assert main(["metrics", "--apps", "3",
                     "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert '# TYPE darpa_latency_reaction_ms summary' in text
        assert "darpa_pipeline_screens_analyzed_total" in text
        assert "darpa_trace_dropped_spans_total 0" in text

    def test_trace_then_top_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["trace", "--output", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "0 spans dropped" in out
        assert main(["top", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "reaction" in out and "1 session(s)" in out

    def test_top_missing_trace_exits_two(self, tmp_path, capsys):
        rc = main(["top", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_top_malformed_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "debounce"}\n{not json\n')
        assert main(["top", "--trace", str(bad)]) == 2
        assert "malformed JSONL" in capsys.readouterr().err
        not_spans = tmp_path / "notspans.jsonl"
        not_spans.write_text('{"rows": 3}\n')
        assert main(["top", "--trace", str(not_spans)]) == 2
        assert "not a span record" in capsys.readouterr().err

    def test_serve_resume_without_journal_exits_two(self, tmp_path,
                                                    capsys):
        rc = main(["serve", "--apps", "1", "--resume",
                   "--out", str(tmp_path / "void")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("serve: ")

    def test_trace_unreadable_model_exits_two(self, tmp_path, capsys):
        rc = main(["trace", "--model", str(tmp_path / "absent.npz"),
                   "--output", str(tmp_path / "trace.jsonl")])
        assert rc == 2
        assert "trace: cannot read model" in capsys.readouterr().err

    def test_trace_unwritable_output_exits_two_fast(self, tmp_path,
                                                    capsys):
        # The artifact path is opened before any session is replayed, so
        # a bad path fails in milliseconds, not after a traced run.
        rc = main(["trace",
                   "--output", str(tmp_path / "no" / "dir" / "t.jsonl")])
        assert rc == 2
        assert "trace: cannot write trace" in capsys.readouterr().err

    def test_metrics_unwritable_output_exits_two_fast(self, tmp_path,
                                                      capsys):
        rc = main(["metrics", "--apps", "2",
                   "--output", str(tmp_path / "no" / "dir" / "m.prom")])
        assert rc == 2
        assert "metrics: cannot write exposition" in capsys.readouterr().err

    def test_regress_subcommand_delegates(self, tmp_path, capsys):
        payload = tmp_path / "b.json"
        payload.write_text('{"alerts_total": 9}')
        assert main(["regress", "--baseline", str(payload),
                     "--fresh", str(payload)]) == 0
        drifted = tmp_path / "f.json"
        drifted.write_text('{"alerts_total": 11}')
        assert main(["regress", "--baseline", str(payload),
                     "--fresh", str(drifted)]) == 1
        assert main(["regress", "--baseline", str(payload),
                     "--fresh", str(drifted),
                     "--rule", "alerts_total=abs:5"]) == 0

    def test_regress_accepts_every_module_option(self, tmp_path, capsys):
        payload = tmp_path / "b.json"
        payload.write_text('{"alerts_total": 9}')
        assert main(["regress", "--baseline", str(payload),
                     "--fresh", str(payload), "--quiet",
                     "--explain-top", "5"]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_non_forwarded_commands_still_reject_unknown_options(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dataset", "--quiet"])
        assert excinfo.value.code == 2


class TestDashCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dash", "--dir", "out"])
        assert args.command == "dash" and args.dir == "out"
        assert args.ct == 200.0 and args.port == 8765
        assert args.host == "127.0.0.1" and args.once is None

    def test_dir_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["dash"])
        assert excinfo.value.code == 2

    def test_missing_run_directory_exits_two(self, tmp_path, capsys):
        rc = main(["dash", "--dir", str(tmp_path / "absent"), "--once",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "dash: cannot load run directory" in capsys.readouterr().err

    def test_artifact_free_directory_exits_two(self, tmp_path, capsys):
        rc = main(["dash", "--dir", str(tmp_path), "--once",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "no run artifacts" in capsys.readouterr().err

    def test_unwritable_dump_directory_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        rc = main(["dash", "--dir", OPS_FIXTURE, "--once",
                   str(blocker / "out")])
        assert rc == 2
        assert "dash: cannot write route dump" in capsys.readouterr().err

    def test_once_dump_matches_the_committed_goldens(self, tmp_path,
                                                     capsys):
        out_dir = tmp_path / "routes"
        rc = main(["dash", "--dir", OPS_FIXTURE, "--once", str(out_dir)])
        assert rc == 0
        assert "Wrote" in capsys.readouterr().out
        dumped = sorted(os.listdir(out_dir))
        assert dumped == sorted(os.listdir(OPS_GOLDENS))
        for name in dumped:
            got = (out_dir / name).read_bytes()
            with open(os.path.join(OPS_GOLDENS, name), "rb") as fp:
                assert got == fp.read(), name
