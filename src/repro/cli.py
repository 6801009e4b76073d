"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``dataset``   — corpus statistics (Tables I/II, layout patterns)
- ``train``     — train a detector, report test metrics, save weights
- ``evaluate``  — evaluate a saved detector on the test split
- ``simulate``  — run DARPA over a simulated app fleet (Table VI style)
- ``serve``     — run the fleet through the serving daemon (admission
  control, priority lanes, load shedding, drain, crash-safe resume)
- ``trace``     — trace one session, dump span JSONL + stage summary
- ``metrics``   — run a traced fleet, emit Prometheus text exposition
- ``slo``       — evaluate fleet SLOs + burn-rate alerts (CI smoke)
- ``top``       — terminal latency/health summary of a fleet or trace
- ``dash``      — live ops dashboard (HTTP/SSE) over a run directory
- ``bench``     — run a benchmark suite (``kernels``: plan forward per batch)
- ``regress``   — gate fresh benchmark output against a baseline
  (``--explain`` prints the profile attribution on failure)
- ``profile``   — fold span dumps into a deterministic flame profile,
  or diff two profiles into a ranked attribution report
- ``lint``      — darpalint static analysis (determinism rules DL001-8)
- ``flow``      — darpaflow interprocedural nondeterminism taint
  analysis (DF001-7, full source→sink hop traces, baseline gating)
- ``survey``    — user-study findings (Section III-B)

``lint``, ``flow`` and ``regress`` hand the rest of the command line
unchanged to their own modules' CLIs (:mod:`repro.analysis.cli`,
:mod:`repro.analysis.flow.cli`, :mod:`repro.bench.regress`), whose
parsers are the only definition of their options.

Exit codes are documented once, in :mod:`repro.exits`; every command
reports a failure through :func:`repro.exits.fail` (``prog: reason``
on stderr).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.exits import fail


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datagen import build_corpus, split_corpus
    from repro.datagen.splits import split_summary

    corpus = build_corpus(seed=args.seed)
    print(f"D_app: {len(corpus.apps)} apps; D_aui: {len(corpus.samples)} "
          f"AUI screenshots; negatives: {len(corpus.negatives)}")
    print("\nTable I — AUI types:")
    for aui_type, count in sorted(corpus.type_distribution().items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {aui_type.value:<32} {count:>5} "
              f"({count / len(corpus.samples):.1%})")
    ago, upo = corpus.box_totals()
    print(f"\nBoxes: AGO={ago} UPO={upo}")
    stats = corpus.layout_statistics()
    print(f"Layout: central AGO {stats['ago_central']:.1%}, "
          f"corner UPO {stats['upo_corner']:.1%}, "
          f"first-party {stats['first_party']:.1%}")
    print("\nTable II — splits:")
    for name, row in split_summary(split_corpus(corpus, seed=args.seed)).items():
        print(f"  {name:<6} shots={row[0]:>4} AGO={row[1]:>4} UPO={row[2]:>4}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.datagen import build_corpus, split_corpus
    from repro.vision import (TinyYolo, YoloConfig, YoloTrainer,
                              build_detection_dataset)

    corpus = build_corpus(seed=args.seed)
    splits = split_corpus(corpus, seed=args.seed)
    train_samples = splits["train"][:args.limit] if args.limit else splits["train"]
    print(f"Rendering {len(train_samples)} training screens...")
    train = build_detection_dataset(train_samples)
    model = TinyYolo(YoloConfig(), seed=args.seed)
    trainer = YoloTrainer(model, lr=args.lr, batch_size=args.batch_size,
                          seed=args.seed)
    from repro.wallclock import Stopwatch
    watch = Stopwatch()
    for epoch in range(args.epochs):
        loss = trainer.train_epoch(train)
        if (epoch + 1) % max(1, args.epochs // 10) == 0:
            print(f"  epoch {epoch + 1}/{args.epochs} loss={loss:.4f} "
                  f"({watch.elapsed_s():.0f}s)")
    np.savez(args.output, **model.state_dict())
    print(f"Saved model state to {args.output}")
    if not args.no_eval:
        return _evaluate_model(model, splits, args.threshold)
    return 0


def _load_model(path: str):
    import numpy as np

    from repro.vision import TinyYolo, YoloConfig
    model = TinyYolo(YoloConfig(), seed=0)
    model.load_state_dict(dict(np.load(path)))
    return model


def _evaluate_model(model, splits, threshold: float) -> int:
    from repro.vision import DetectionEvaluator, build_detection_dataset

    print("Rendering the test split...")
    test = build_detection_dataset(splits["test"], keep_screen_images=True)
    evaluator = DetectionEvaluator(iou_threshold=0.9)
    for i in range(len(test)):
        dets = model.detect_screen(test.screen_images[i],
                                   conf_threshold=threshold)
        evaluator.add_image(dets, test.screen_labels[i])
    result = evaluator.result()
    print(f"{'class':<6} {'P':>7} {'R':>7} {'F1':>7}")
    for name in ("AGO", "UPO", "All"):
        p, r, f = result.row(name)
        print(f"{name:<6} {p:>7.3f} {r:>7.3f} {f:>7.3f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.datagen import build_corpus, split_corpus

    model = _load_model(args.model)
    if args.port:
        from repro.vision import PortConfig, port_model
        model = port_model(model, PortConfig(quantization=args.port))
        print(f"Evaluating the {args.port}-ported model...")
    corpus = build_corpus(seed=args.seed)
    splits = split_corpus(corpus, seed=args.seed)
    return _evaluate_model(model, splits, args.threshold)


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.bench import build_runtime_fleet, run_darpa_over_fleet
    from repro.vision.metrics import ScreenConfusion

    detector = "oracle" if args.model is None else _load_model(args.model)
    if args.model is None:
        print("No --model given; using the ground-truth oracle detector.")
    sessions = build_runtime_fleet(n_apps=args.apps, seed=args.seed)
    print(f"Replaying {args.apps} one-minute sessions at ct={args.ct}ms...")
    results = run_darpa_over_fleet(sessions, detector, ct_ms=args.ct,
                                   mode="full")
    confusion = ScreenConfusion()
    for res in results:
        for labeled, flagged in res.screen_verdicts:
            confusion.add_screen(labeled, flagged)
    cpu = float(np.mean([r.perf.cpu_pct for r in results]))
    fps = float(np.mean([r.perf.fps for r in results]))
    mw = float(np.mean([r.perf.power_mw for r in results]))
    print(f"screens analyzed: {sum(r.screens_analyzed for r in results)}")
    print(f"AUI screens: caught {confusion.tp}, missed {confusion.fn}; "
          f"false flags {confusion.fp} of {confusion.fp + confusion.tn} "
          f"non-AUI screens")
    print(f"avg perf: {cpu:.1f}% CPU, {fps:.0f} fps, {mw:.0f} mW")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.android.faults import FaultPlan
    from repro.bench import build_runtime_fleet
    from repro.core.daemon import DaemonConfig, DarpaDaemon, JournalError

    detector = "oracle" if args.model is None else _load_model(args.model)
    if args.model is None:
        print("No --model given; using the ground-truth oracle detector.")
    sessions = build_runtime_fleet(n_apps=args.apps, seed=args.seed)
    config = DaemonConfig(
        inter_arrival_ms=args.inter_arrival,
        admission_rate_per_s=args.rate,
        admission_burst=args.burst,
        workers=args.workers,
        batch_max=args.batch_max,
        batch_service_ms=args.service_ms,
        shed_deadline_ms=args.shed_deadline,
        background_every=args.background_every,
    )
    fault_plan = None
    if args.worker_crash_rate or args.worker_stall_rate:
        fault_plan = FaultPlan(seed=args.seed,
                               worker_crash_rate=args.worker_crash_rate,
                               worker_stall_rate=args.worker_stall_rate)
    daemon = DarpaDaemon(sessions, detector, config=config, ct_ms=args.ct,
                         mode="full", fault_plan=fault_plan,
                         out_dir=args.out, keep_results=False)
    verb = "Resuming" if args.resume else "Serving"
    print(f"{verb} {args.apps} sessions through the daemon "
          f"({config.workers} workers, batch<={config.batch_max}, "
          f"{config.admission_rate_per_s:g}/s admission)...")
    try:
        report = daemon.run(resume=args.resume, drain_at_ms=args.drain_at,
                            max_batches=args.max_batches)
    except JournalError as exc:
        return fail("serve", str(exc))
    c = report.counters
    print(f"offered {c['offered']}  admitted {c['admitted']}  "
          f"completed {c['completed']}")
    print(f"outcomes: decorated {c['decorated']}  degraded {c['degraded']}  "
          f"shed {c['shed']} (rate_limited {c['shed_rate_limited']}, "
          f"queue_full {c['shed_queue_full']}, drained {c['shed_drained']})")
    print(f"batches: {c['batches_completed']} completed of "
          f"{c['batches_formed']} formed "
          f"(mean occupancy {report.mean_batch_occupancy:.2f}); "
          f"worker crashes {c['worker_crashes']}, stalls {c['worker_stalls']}")
    if c["coalesced_rounds"]:
        print(f"coalesced {c['coalesced_requests']} inferences into "
              f"{c['coalesced_rounds']} shared batch calls")
    if report.killed:
        print(f"killed after {args.max_batches} batch(es) — resume with "
              f"--resume --out {args.out}")
    elif args.out:
        print(f"artifacts in {args.out} (daemon.json, drain.json, "
              f"telemetry.json, trace.jsonl)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.bench import build_runtime_fleet, run_darpa_session
    from repro.core.observability import (
        report_from_spans,
        session_root,
        stage_cpu_ms,
    )

    if args.model is None:
        detector = "oracle"
        print("No --model given; using the ground-truth oracle detector.")
    else:
        try:
            detector = _load_model(args.model)
        except OSError as exc:
            return fail("trace", f"cannot read model {args.model}: {exc}")
    # Open the span dump before replaying anything: an unwritable
    # artifact path must fail fast (exit 2, as `repro regress` does for
    # unreadable inputs), not after a full traced session.
    try:
        out_fp = open(args.output, "w")
    except OSError as exc:
        return fail("trace", f"cannot write trace {args.output}: {exc}")
    sessions = build_runtime_fleet(n_apps=max(1, args.session + 1),
                                   seed=args.seed)
    session = sessions[args.session]
    print(f"Tracing session {args.session} ({session.spec.package}) "
          f"at ct={args.ct}ms...")
    result = run_darpa_session(session, detector, ct_ms=args.ct, mode="full",
                               monkey_seed=1000 + args.session, trace=True)
    with out_fp as fp:
        for span in result.spans:
            fp.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"Wrote {len(result.spans)} spans to {args.output}")

    root = session_root(result.spans)
    by_stage: dict = {}
    for span in result.spans:
        name = span["name"]
        count, dur = by_stage.get(name, (0, 0.0))
        by_stage[name] = (count + 1, dur + (span["end_ms"] - span["start_ms"]))
    cpu = stage_cpu_ms(result.spans)
    print(f"\n{'stage':<12} {'spans':>6} {'wall ms':>10} {'cpu ms':>10}")
    for name in sorted(by_stage):
        count, dur = by_stage[name]
        print(f"{name:<12} {count:>6} {dur:>10.1f} {cpu.get(name, 0.0):>10.1f}")
    rebuilt = report_from_spans(result.spans)
    assert rebuilt == result.perf, "span-derived report diverged"
    dropped = result.metrics.get("counters", {}).get(
        "darpa.trace.dropped_spans", 0)
    print(f"\nsession: {root['end_ms'] - root['start_ms']:.0f} ms, "
          f"{result.screens_analyzed} screens analyzed, "
          f"{dropped} spans dropped by the ring buffer")
    if dropped:
        print("WARNING: the trace is incomplete — raise the tracer "
              "capacity to keep span-derived totals exact.")
    print(f"span-derived perf (bit-equal to the meter): "
          f"{rebuilt.cpu_pct:.1f}% CPU, {rebuilt.fps:.0f} fps, "
          f"{rebuilt.power_mw:.0f} mW")
    return 0


# ---------------------------------------------------------------------------
# Fleet telemetry commands
# ---------------------------------------------------------------------------

def _run_telemetry_fleet(args: argparse.Namespace):
    """Run a traced oracle fleet and derive its telemetry.

    Returns ``(results, telemetries, fleet)`` where ``telemetries`` is
    the per-session series (for the SLO engine) and ``fleet`` the
    merged :class:`FleetTelemetry`.
    """
    from repro.bench import (
        STORM_DARPA_KWARGS,
        build_runtime_fleet,
        storm_fault_plan,
    )
    from repro.bench.parallel import run_darpa_over_fleet_parallel
    from repro.core.telemetry import FleetTelemetry, session_telemetries

    sessions = build_runtime_fleet(n_apps=args.apps, seed=args.seed)
    fault_plan = storm_fault_plan(seed=args.seed) if args.storm else None
    darpa_kwargs = STORM_DARPA_KWARGS if args.storm else None
    label = "storm" if args.storm else "zero-fault"
    print(f"Replaying {args.apps} one-minute sessions at ct={args.ct}ms "
          f"({label}, oracle detector)...")
    results = run_darpa_over_fleet_parallel(
        sessions, "oracle", ct_ms=args.ct, mode="full",
        n_workers=args.workers, fault_plan=fault_plan,
        darpa_kwargs=darpa_kwargs, trace=True)
    telemetries = session_telemetries(results)
    return results, telemetries, FleetTelemetry.from_sessions(telemetries)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.telemetry import (
        merge_registry_snapshots,
        registry_prometheus_lines,
    )

    out_fp = None
    if args.output:
        # Fail fast on an unwritable exposition path (exit 2, mirroring
        # `repro regress`) instead of discovering it after the fleet ran.
        try:
            out_fp = open(args.output, "w")
        except OSError as exc:
            return fail("metrics",
                        f"cannot write exposition {args.output}: {exc}")
    results, _, fleet = _run_telemetry_fleet(args)
    lines = fleet.prometheus_lines()
    merged = merge_registry_snapshots([r.metrics for r in results])
    lines += registry_prometheus_lines(merged)
    text = "\n".join(lines) + "\n"
    if out_fp is not None:
        with out_fp as fp:
            fp.write(text)
        print(f"Wrote {len(lines)} exposition lines to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.core.telemetry import SloEngine, default_slos
    from repro.rundir import write_json

    _, telemetries, fleet = _run_telemetry_fleet(args)
    engine = SloEngine(default_slos(ct_ms=args.ct))
    report = engine.evaluate(telemetries)

    print(f"\n{'SLO':<20} {'objective':>9} {'compliance':>10} "
          f"{'burn':>8} {'bad/total':>12} {'status':>8}")
    for res in report.results:
        print(f"{res.spec.name:<20} {res.spec.objective:>9.3f} "
              f"{res.compliance:>10.4f} {res.burn_rate:>8.2f} "
              f"{res.bad:>5}/{res.total:<6} "
              f"{'OK' if res.met else 'VIOLATED':>8}")
    if report.alerts:
        print(f"\n{len(report.alerts)} burn-rate alert(s):")
        for alert in report.alerts:
            print(f"  [{alert.severity}] {alert.slo} at session "
                  f"{alert.session_index} (t={alert.sim_time_ms / 1000:.0f}s): "
                  f"burn {alert.fast_burn:.1f}x/{alert.slow_burn:.1f}x over "
                  f"{alert.fast_window}/{alert.slow_window} sessions")
    else:
        print("\nno burn-rate alerts")
    if args.json:
        write_json(args.json, report.to_dict())
        print(f"Wrote SLO report to {args.json}")
    if args.fail_on_alert and report.alerts:
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    if args.trace is not None:
        from repro.core.telemetry import (
            FleetTelemetry,
            SessionTelemetry,
            sketches_from_spans,
        )
        from repro.rundir import read_spans

        # A single-session `repro trace` dump or a merged fleet trace.jsonl.
        try:
            spans = read_spans([args.trace])
            fleet = FleetTelemetry.from_sessions(
                SessionTelemetry(session, sketches_from_spans(
                    spans[session], session=session))
                for session in sorted(spans))
        except ValueError as exc:
            return fail("top", f"cannot read trace: {exc}")
        source = args.trace
    else:
        _, _, fleet = _run_telemetry_fleet(args)
        source = f"{args.apps}-session fleet"

    print(f"\ndarpa top — {source} ({fleet.sessions} session(s))")
    print(f"{'stage (ms)':<28} {'count':>7} {'p50':>9} {'p95':>9} "
          f"{'p99':>9} {'max':>9}")
    for name in sorted(fleet.sketches):
        sketch = fleet.sketches[name]
        stage = name.split(".")[-1].replace("_ms", "")
        top = sketch.max if sketch.max is not None else 0.0
        print(f"{stage:<28} {sketch.count:>7} {sketch.quantile(0.5):>9.1f} "
              f"{sketch.quantile(0.95):>9.1f} {sketch.quantile(0.99):>9.1f} "
              f"{top:>9.1f}")
    nonzero = {k: v for k, v in sorted(fleet.counters.items()) if v}
    if nonzero:
        print("\ncounters: " + "  ".join(f"{k}={v}"
                                         for k, v in nonzero.items()))
    from repro.core.telemetry import REACTION_SKETCH
    exemplar = fleet.sketches[REACTION_SKETCH].hottest_exemplar()
    if exemplar is not None:
        print(f"slowest reactions: session {exemplar['session']} "
              f"span {exemplar['span_id']} ({exemplar['trace_id']})")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.ops.cli import run_dash

    return run_dash(args.dir, ct_ms=args.ct, host=args.host, port=args.port,
                    once=args.once)


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    if args.suite != "kernels":  # argparse choices already guard this
        return fail("bench", f"unknown suite {args.suite!r}")
    from repro.bench.kernels import run_kernel_bench

    try:
        payload = run_kernel_bench(
            batch_sizes=tuple(args.batch), rounds=args.rounds,
            seed=args.seed, out_path=args.out)
    except ValueError as exc:
        return fail("bench", str(exc))
    print(f"{'batch':>6} {'forward ms':>12}")
    for n, ms in payload["forward_ms"].items():
        print(f"{n:>6} {ms:>12.3f}")
    if "baseline_ms_batch32" in payload:
        print(f"\nbatch-32 vs {payload['baseline_ms_batch32']:.1f} ms "
              f"historical baseline: "
              f"{payload['speedup_vs_baseline_batch32']:.2f}x")
    if args.out:
        print(f"Wrote {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling.cli import run_profile

    return run_profile(source=args.source, diff=args.diff, fold=args.fold,
                       top=args.top, json_out=args.json)


def _cmd_survey(args: argparse.Namespace) -> int:
    del args
    from examples.user_study_report import main as report
    report()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DARPA (DSN 2023) reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("dataset", help="corpus statistics")

    p_train = sub.add_parser("train", help="train a detector")
    p_train.add_argument("--epochs", type=int, default=80)
    p_train.add_argument("--lr", type=float, default=2e-3)
    p_train.add_argument("--batch-size", type=int, default=16)
    p_train.add_argument("--limit", type=int, default=0,
                         help="cap training samples (0 = all)")
    p_train.add_argument("--threshold", type=float, default=0.4)
    p_train.add_argument("--output", default="darpa_model.npz")
    p_train.add_argument("--no-eval", action="store_true")

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model")
    p_eval.add_argument("model")
    p_eval.add_argument("--threshold", type=float, default=0.4)
    p_eval.add_argument("--port", choices=("none", "fp16", "int8"),
                        default=None, help="evaluate a ported variant")

    p_sim = sub.add_parser("simulate", help="run DARPA over a fleet")
    p_sim.add_argument("--apps", type=int, default=20)
    p_sim.add_argument("--ct", type=float, default=200.0)
    p_sim.add_argument("--model", default=None,
                       help="saved model (.npz); omit for the oracle")

    p_serve = sub.add_parser(
        "serve", help="run the fleet through the serving daemon")
    p_serve.add_argument("--apps", type=int, default=8)
    p_serve.add_argument("--ct", type=float, default=200.0)
    p_serve.add_argument("--model", default=None,
                         help="saved model (.npz); omit for the oracle")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="shared batched-inference workers")
    p_serve.add_argument("--batch-max", type=int, default=4,
                         help="largest coalesced batch")
    p_serve.add_argument("--rate", type=float, default=50.0,
                         help="admission token rate, sessions/second")
    p_serve.add_argument("--burst", type=int, default=16,
                         help="admission token-bucket burst")
    p_serve.add_argument("--inter-arrival", type=float, default=120.0,
                         help="offered load: ms between session arrivals")
    p_serve.add_argument("--service-ms", type=float, default=250.0,
                         help="simulated service time per batch")
    p_serve.add_argument("--shed-deadline", type=float, default=2000.0,
                         help="queue wait before a session degrades to the "
                              "FraudDroid fallback (0 = never)")
    p_serve.add_argument("--background-every", type=int, default=0,
                         help="route every Nth session to the background "
                              "lane (0 = all interactive)")
    p_serve.add_argument("--worker-crash-rate", type=float, default=0.0,
                         help="seeded mid-batch worker crash probability")
    p_serve.add_argument("--worker-stall-rate", type=float, default=0.0,
                         help="seeded mid-batch worker stall probability")
    p_serve.add_argument("--out", default=None,
                         help="artifact directory (journal, daemon.json, "
                              "drain.json, merged telemetry)")
    p_serve.add_argument("--resume", action="store_true",
                         help="resume a killed run from its journal")
    p_serve.add_argument("--drain-at", type=float, default=None,
                         help="start a graceful drain at this fleet ms")
    p_serve.add_argument("--max-batches", type=int, default=None,
                         help="kill the daemon after N batches (crash "
                              "simulation; pair with --resume later)")

    p_trace = sub.add_parser("trace", help="trace one session to JSONL")
    p_trace.add_argument("--session", type=int, default=0,
                         help="fleet index of the session to trace")
    p_trace.add_argument("--ct", type=float, default=200.0)
    p_trace.add_argument("--model", default=None,
                         help="saved model (.npz); omit for the oracle")
    p_trace.add_argument("--output", default="trace.jsonl")

    def add_fleet_options(p):
        p.add_argument("--apps", type=int, default=8)
        p.add_argument("--ct", type=float, default=200.0)
        p.add_argument("--workers", type=int, default=None,
                       help="fleet worker processes (default: cores)")
        p.add_argument("--storm", action="store_true",
                       help="inject the canonical storm fault plan")

    p_metrics = sub.add_parser(
        "metrics", help="run a traced fleet, emit Prometheus exposition")
    add_fleet_options(p_metrics)
    p_metrics.add_argument("--output", default=None,
                           help="write the exposition here instead of stdout")

    p_slo = sub.add_parser(
        "slo", help="evaluate fleet SLOs and burn-rate alerts")
    add_fleet_options(p_slo)
    p_slo.add_argument("--json", default=None,
                       help="also write the SLO report as JSON")
    p_slo.add_argument("--fail-on-alert", action="store_true",
                       help="exit 1 when any burn-rate alert fired")

    p_top = sub.add_parser(
        "top", help="terminal latency/health summary (fleet or trace file)")
    add_fleet_options(p_top)
    p_top.add_argument("--trace", default=None,
                       help="summarize an existing span JSONL instead of "
                            "running a fleet")

    p_dash = sub.add_parser(
        "dash", help="live ops dashboard over a run's artifacts")
    p_dash.add_argument("--dir", required=True,
                        help="run directory (telemetry.json or shard "
                             "parts, trace JSONL, daemon.json, ...)")
    p_dash.add_argument("--ct", type=float, default=200.0,
                        help="debounce cut-off the run used (sets the "
                             "reaction budget on the overview)")
    p_dash.add_argument("--host", default="127.0.0.1")
    p_dash.add_argument("--port", type=int, default=8765)
    p_dash.add_argument("--once", default=None, metavar="OUTDIR",
                        help="dump every /api route to OUTDIR and exit "
                             "(golden-response generation / CI diff)")

    p_bench = sub.add_parser(
        "bench", help="run a benchmark suite and emit its payload")
    p_bench.add_argument("suite", choices=("kernels",),
                         help="benchmark suite to run")
    p_bench.add_argument("--batch", type=int, nargs="+", default=[1, 8, 32],
                         help="batch sizes to time (default: 1 8 32)")
    p_bench.add_argument("--rounds", type=int, default=9,
                         help="timing rounds per batch size (best-of)")
    p_bench.add_argument("--out", default=None,
                         help="write the manifest-stamped payload here")

    # Forwarded commands: their own CLIs define every option.
    sub.add_parser("regress", add_help=False,
                   help="gate fresh benchmark output against a baseline")

    p_profile = sub.add_parser(
        "profile", help="fold span dumps into a flame profile, or diff two")
    p_profile.add_argument("source", nargs="?", default=None,
                           help="run directory, profile.json, BENCH_*.json "
                                "with a profile block, or span JSONL")
    p_profile.add_argument("--diff", nargs=2, default=None,
                           metavar=("BASE", "FRESH"),
                           help="diff two profile sources; exits 1 when "
                                "they differ")
    p_profile.add_argument("--fold", action="store_true",
                           help="emit folded stacks (flamegraph input) on "
                                "stdout instead of the summary")
    p_profile.add_argument("--top", type=int, default=15,
                           help="frames to show (default: 15)")
    p_profile.add_argument("--json", default=None, metavar="FILE",
                           help="also write the canonical profile.json")

    sub.add_parser("lint", add_help=False,
                   help="darpalint: determinism & sim-correctness rules")
    sub.add_parser("flow", add_help=False,
                   help="darpaflow: interprocedural nondeterminism taint "
                        "analysis (DF001-DF007)")

    sub.add_parser("survey", help="user-study findings")
    return parser


_COMMANDS = {
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "slo": _cmd_slo,
    "top": _cmd_top,
    "dash": _cmd_dash,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "survey": _cmd_survey,
}


#: Commands whose command line belongs to another module's ``main``,
#: imported only when the command runs.
_FORWARDED = {
    "lint": "repro.analysis.cli",
    "flow": "repro.analysis.flow.cli",
    "regress": "repro.bench.regress",
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDED:
        # Only ``--seed N`` may precede the command, and N is an int, so
        # the first occurrence of the command's name is the command.
        tail = argv[argv.index(args.command) + 1:]
        return importlib.import_module(_FORWARDED[args.command]).main(tail)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
