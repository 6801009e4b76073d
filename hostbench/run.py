"""Host-measured benchmark of the DARPA reproduction.

Usage (from the repository root)::

    python3 hostbench/run.py --workload fleet_cnn --seed 0 --seconds 10 --trace 0

Sets the workload up several times (``setup_s`` is the median), then
feeds the seed's order of the workload's fixed pool through a closed
loop until at least one full pass is done and ``--seconds`` have
passed.  Every unit's outputs are checked against ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same units again under the span recorder (``spans.py``), checks that the
replay reproduces every digest, and prints the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it
are the same numbers as a table.  All times are host wall time through
:mod:`repro.wallclock`; nothing is written outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Set-ups per run; ``setup_s`` is their median.  Most set-ups take
#: under a second and swing with the host, so five are taken; the
#: test-split render makes one static_eval set-up 12-15 s, so it is
#: repeated twice.
SETUP_REPEATS = {"static_eval": 2}
DEFAULT_SETUP_REPEATS = 5

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("screens_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("upo_recall", "ratio", "higher"),
    ("all_f1", "ratio", "higher"),
)

_LAYER_STATS = (("calls", "count", "lower"), ("self_ms", "ms", "lower"),
                ("ms_p50", "ms", "lower"), ("ms_p99", "ms", "lower"))

#: Per-layer counts and ratios beyond the four stats every layer has.
_LAYER_EXTRAS = (
    ("core.screencache.hit_ratio", "ratio", "higher"),
    ("vision.nn.images_per_call", "images/call", "higher"),
    ("geometry.nms.boxes_in", "count", "lower"),
    ("geometry.nms.boxes_out", "count", "lower"),
    ("core.decorator.decorations", "count", "lower"),
    ("core.daemon.coalesced_rounds", "count", "lower"),
    ("core.daemon.occupancy_mean", "requests/round", "higher"),
    ("core.daemon.degraded", "count", "lower"),
    ("run_load_ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


def per_layer_spec(layers) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric (``--trace 1``)."""
    return ([(f"{layer}.{stat}", unit, better) for layer in layers
             for stat, unit, better in _LAYER_STATS] + list(_LAYER_EXTRAS))


def _fail(message: str) -> None:
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    benchmark modules; exit non-zero when the program is not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parents[2] != ROOT:
        _fail(f"imported repro from {repro.__file__}, not this checkout")
    import spans
    import workloads
    return spans, workloads


class Ledger:
    """Correctness bookkeeping over every unit a run executes."""

    def __init__(self, committed: Dict[str, str]):
        self.committed = committed
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result, size: int) -> None:
        bad = list(result.problems)
        for key, value in result.digests.items():
            want = self.committed.get(key, self.seen.get(key))
            if want is None:
                bad.append(f"{key}: no committed digest")
            elif want != value:
                bad.append(f"{key}: digest {value} != {want}")
            self.seen.setdefault(key, value)
        self.attempted += size
        self.failed += min(size, len(bad))
        self.problems.extend(bad)

    def crashed(self, unit, size: int) -> None:
        self.attempted += size
        self.failed += size
        self.problems.append(f"{unit!r}: raised\n{traceback.format_exc()}")


def _run_units(workload, state, units, ledger: Ledger,
               seconds: Optional[float] = None):
    """Run ``units`` (cycling when ``seconds`` is given, until one full
    pass is done and ``seconds`` have passed).  Returns the executed
    units, their results (None for a crash) and the wall seconds."""
    from repro.wallclock import Stopwatch

    done: List[Tuple[object, object]] = []
    watch = Stopwatch()
    i = 0
    while True:
        unit = units[i % len(units)]
        size = workload.unit_size(unit)
        try:
            result = workload.run_unit(state, unit)
        except Exception:  # a crashed unit is a counted failure
            ledger.crashed(unit, size)
            result = None
        else:
            ledger.check(result, size)
        done.append((unit, result))
        i += 1
        if seconds is None:
            if i == len(units):
                break
        elif i >= len(units) and watch.elapsed_s() >= seconds:
            break
    return done, watch.elapsed_s()


def _sum_extra(results, key: str) -> float:
    return sum(r.extra.get(key, 0) for r in results if r is not None)


def _run_load_ms(done) -> Optional[float]:
    """Median ``load_run`` + ``load_profile`` time, if the units read a
    run directory back."""
    loads = [r.extra["run_load_ms"] for _, r in done
             if r is not None and "run_load_ms" in r.extra]
    return statistics.median(loads) if loads else None


def _per_layer(spans_mod, recorder, untraced, traced, untraced_s: float,
               traced_s: float) -> Dict[str, float]:
    layers = spans_mod.layer_metrics(recorder.spans)
    out: Dict[str, float] = {}
    for layer in spans_mod.LAYERS:
        for stat in ("calls", "self_ms", "ms_p50", "ms_p99"):
            out[f"{layer}.{stat}"] = layers[f"{layer}.{stat}"]
    probes = layers.get("core.screencache.probes", 0)
    out["core.screencache.hit_ratio"] = (
        layers.get("core.screencache.hits", 0) / probes if probes else 0.0)
    forwards = layers["vision.nn.calls"]
    out["vision.nn.images_per_call"] = (
        layers.get("vision.nn.images", 0) / forwards if forwards else 0.0)
    out["geometry.nms.boxes_in"] = layers.get("geometry.nms.boxes_in", 0)
    out["geometry.nms.boxes_out"] = layers.get("geometry.nms.boxes_out", 0)
    out["core.decorator.decorations"] = layers.get(
        "core.decorator.decorations", 0)
    results = [r for _, r in traced]
    rounds = _sum_extra(results, "coalesced_rounds")
    out["core.daemon.coalesced_rounds"] = rounds
    out["core.daemon.occupancy_mean"] = (
        _sum_extra(results, "coalesced_requests") / rounds if rounds else 0.0)
    out["core.daemon.degraded"] = _sum_extra(results, "degraded")
    out["run_load_ms"] = _run_load_ms(untraced) or 0.0
    out["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return out


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans, workloads = import_program()
    from repro.wallclock import Stopwatch

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    if not DIGESTS.is_file():
        _fail(f"missing committed digests {DIGESTS}")
    committed = json.loads(DIGESTS.read_text())[args.workload]
    workload = workloads.WORKLOADS[args.workload]()

    setup_times: List[float] = []
    state = None
    try:
        for _ in range(SETUP_REPEATS.get(workload.name, DEFAULT_SETUP_REPEATS)):
            if state is not None:
                # Drop the previous set-up first, so two never coexist
                # in memory and peak_rss_mb is that of one set-up.
                workload.close(state)
                state = None
            watch = Stopwatch()
            state = workload.setup()
            setup_times.append(watch.elapsed_s())
    except workloads.SetupError as exc:
        _fail(f"set-up failed: {exc}")

    try:
        ledger = Ledger(committed)
        units = workload.order(state, args.seed)
        untraced, untraced_s = _run_units(workload, state, units, ledger,
                                          seconds=args.seconds)
        first_pass = untraced[:len(units)]
        screens = sum(r.screens for _, r in untraced if r is not None)
        quality = workload.quality(
            [r for _, r in first_pass if r is not None])
        if args.trace:
            recorder = spans.SpanRecorder()
            replay = [unit for unit, _ in untraced]
            # The replay must reproduce the untraced run's own digests.
            replay_ledger = Ledger(dict(ledger.seen))
            with spans.patched(recorder):
                traced, traced_s = _run_units(workload, state, replay,
                                              replay_ledger)
            ledger.failed += replay_ledger.failed
            ledger.problems.extend(replay_ledger.problems)
            metrics = _per_layer(spans, recorder, untraced, traced,
                                 untraced_s, traced_s)
            units_of = {n: u for n, u, _ in per_layer_spec(spans.LAYERS)}
            rows = [(k, v, units_of[k]) for k, v in metrics.items()]
            _print_table(f"{workload.name} per-layer (traced replay of "
                         f"{len(replay)} units, {traced_s:.2f} s)", rows)
            print("layer self-time shares of the traced wall time")
            for layer in sorted(spans.LAYERS,
                                key=lambda n: -metrics[f"{n}.self_ms"]):
                share = metrics[f"{layer}.self_ms"] / (traced_s * 10.0)
                if share:
                    print(f"  {layer:<24} {share:6.1f}%")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "screens_per_s": screens / untraced_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "upo_recall": quality["upo_recall"],
                "all_f1": quality["all_f1"],
            }
            units_of = {n: u for n, u, _ in END_TO_END}
            rows = [(k, metrics[k], units_of[k]) for k, _, _ in END_TO_END]
            rows += [("false_flag_rate", quality["false_flag_rate"], "ratio"),
                     ("fail_share", ledger.failed / max(1, ledger.attempted),
                      "ratio"),
                     ("measured_s", untraced_s, "s"),
                     ("screens", screens, "count")]
            run_load_ms = _run_load_ms(untraced)
            if run_load_ms is not None:
                rows.append(("run_load_ms", run_load_ms, "ms"))
            _print_table(f"{workload.name} seed {args.seed}: "
                         f"{len(untraced)} units", rows)
    finally:
        workload.close(state)

    for problem in ledger.problems[:20]:
        print(f"hostbench: check failed: {problem}", file=sys.stderr)
    failed = min(ledger.failed, ledger.attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
