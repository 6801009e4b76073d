"""The four benchmark workloads: set-up, one unit of work, and checks.

Each workload has a fixed *pool* of work whose outputs are committed in
``digests.json``; :meth:`Workload.order` turns the seed into the
sequence of units a closed loop feeds through (the next unit starts
when the last one finished, in one process).  A fixed pool keeps the
work of a run, and so its quality metrics, identical across seeds, and
lets every unit of every seed be checked against a committed digest.

Layer entry points are called through the module that owns them at call
time, so the traced run's wrappers (see ``spans.py``) see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.bench.experiments as experiments
import repro.ops.artifacts as artifacts
import repro.profiling.io as profiling_io
from repro.android.window import Screen
from repro.bench.cache import BenchCache
from repro.core.daemon import DaemonConfig, DarpaDaemon
from repro.vision import TinyYolo, YoloConfig
from repro.vision.metrics import ClassMetrics, EvalResult
from repro.vision.porting import PortConfig, port_model
from repro.wallclock import Stopwatch

ROOT = Path(__file__).resolve().parents[1]

#: The tracked detector weights: ``get_trained_model()``'s default
#: (110 epochs, seed 0).  Set-up loads exactly this file and never
#: retrains — a miss or a changed file is a set-up failure.
MODEL_FILE = "yolo-3337c21109755b8e.npz"
MODEL_SHA256 = "15173d16565d272d8d62816a64b5fc353c668b22eefa297b10f566bb51c89393"

CT_SWEEP_MS = (50.0, 100.0, 200.0, 300.0, 400.0, 500.0)
#: Table VI fleet: 100 apps of the seed-0 corpus.
FLEET_APPS = 100
#: Sessions of the Table VI fleet replayed by the CNN workloads.
CNN_POOL = (0, 1, 2, 3)
DAEMON_POOL = (2, 4, 5, 6, 9, 10)
#: Offered load at which coalesced rounds average about two requests
#: and the queue wait of some sessions passes the shedding deadline.
DAEMON_CONFIG = DaemonConfig(
    inter_arrival_ms=60.0, workers=1, batch_max=4,
    admission_rate_per_s=50.0, admission_burst=16,
    batch_service_ms=250.0, shed_deadline_ms=150.0)
EVAL_BATCH = 32


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def session_digest(result) -> str:
    """Verdicts, analyses, events, perf report and resilience counters."""
    return digest({
        "verdicts": [list(v) for v in result.screen_verdicts],
        "screens_analyzed": result.screens_analyzed,
        "events_total": result.events_total,
        "perf": asdict(result.perf),
        "resilience": result.resilience,
    })


def detections_digest(detections) -> str:
    return digest([[str(d.label)] + [float(v) for v in (
        d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.score)] for d in detections])


def load_detector(root: Path = ROOT):
    """The tracked trained detector, hash-checked, ported to fp16."""
    config = YoloConfig()
    key = {
        "masked": False, "epochs": experiments.DEFAULT_EPOCHS, "seed": 0,
        "channels": config.channels, "input": (config.input_w, config.input_h),
        "lambda_upo": config.lambda_upo, "v": 2,
    }
    path = root / ".bench_cache" / f"yolo-{BenchCache.fingerprint(key)}.npz"
    if path.name != MODEL_FILE:
        raise SetupError(f"detector cache key moved: {path.name} != {MODEL_FILE}")
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SetupError(f"detector weights missing: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != MODEL_SHA256:
        raise SetupError(f"detector weights {path} fail the sha256 check")
    with np.load(path, allow_pickle=False) as data:
        state = {k: data[k] for k in data.files}
    model = TinyYolo(config, seed=0)
    model.load_state_dict(state)
    port = port_model(model, PortConfig(quantization="fp16"))
    screen = Screen()
    # Compile the inference plan and touch its scratch buffers.
    port.detect_screens([np.zeros((screen.height, screen.width, 3),
                                  dtype=np.float32)])
    return port


def _forget_memos() -> None:
    """Make the next corpus/dataset build cold.  The in-process memos
    would turn every repeat set-up after the first into a dictionary
    lookup; clearing them makes each one pay in full."""
    experiments._corpus_memo.clear()
    experiments._dataset_memo.clear()


def _cold_fleet():
    """The Table VI fleet, built from a cold corpus."""
    _forget_memos()
    return experiments.build_runtime_fleet(FLEET_APPS, seed=0)


@dataclass
class UnitResult:
    """What one unit of work produced."""

    screens: int
    digests: Dict[str, str]
    #: (labeled_aui, flagged) per shown screen; empty for static_eval.
    verdicts: List[Tuple[bool, bool]] = field(default_factory=list)
    eval_result: object = None
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One benchmark workload (see :data:`WORKLOADS`)."""

    name = ""
    why = ""

    def setup(self):
        raise NotImplementedError

    def pool(self, state) -> List[object]:
        raise NotImplementedError

    def run_unit(self, state, unit) -> UnitResult:
        raise NotImplementedError

    def unit_size(self, unit) -> int:
        """Sessions (or screens) one unit attempts."""
        return 1

    def order(self, state, seed: int) -> List[object]:
        """One pass over the pool, in the seed's order."""
        units = self.pool(state)
        perm = np.random.default_rng(seed).permutation(len(units))
        return [units[int(i)] for i in perm]

    def close(self, state) -> None:
        """Release what set-up made outside the process."""

    def quality(self, results) -> Dict[str, float]:
        """Screen-level verdict quality of one full pass."""
        tp = fp = fn = negatives = 0
        for result in results:
            for labeled, flagged in result.verdicts:
                tp += labeled and flagged
                fn += labeled and not flagged
                fp += flagged and not labeled
                negatives += not labeled
        return {
            "upo_recall": tp / max(1, tp + fn),
            "all_f1": 2 * tp / max(1, 2 * tp + fp + fn),
            "false_flag_rate": fp / max(1, negatives),
        }


class FleetCnn(Workload):
    name = "fleet_cnn"
    why = ("Table VI/VII serving path: fp16 CNN, screen cache on; "
           "renderer, fingerprint cache and refine do most of the work")

    def setup(self):
        return {"fleet": _cold_fleet(), "port": load_detector()}

    def pool(self, state):
        return list(CNN_POOL)

    def run_unit(self, state, index):
        result = experiments.run_darpa_session(
            state["fleet"][index], state["port"], ct_ms=200.0, mode="full",
            monkey_seed=1000 + index)
        return UnitResult(
            screens=result.screens_analyzed,
            digests={str(index): session_digest(result)},
            verdicts=list(result.screen_verdicts))


class CtSweepOracle(Workload):
    name = "ct_sweep_oracle"
    why = ("Table VIII / Fig 8 ct sweep with the oracle detector: event "
           "loop, debounce and decorator only; renderer, cache, vision unused")

    def setup(self):
        return {"fleet": _cold_fleet()}

    def pool(self, state):
        return [(ct, i) for ct in CT_SWEEP_MS for i in range(FLEET_APPS)]

    def run_unit(self, state, unit):
        ct, index = unit
        result = experiments.run_darpa_session(
            state["fleet"][index], "oracle", ct_ms=ct, mode="full",
            monkey_seed=1000 + index)
        key = f"{int(ct)}/{index}"
        return UnitResult(
            screens=result.screens_analyzed,
            digests={key: session_digest(result)},
            verdicts=list(result.screen_verdicts))


class DaemonCnn(Workload):
    name = "daemon_cnn"
    why = ("DarpaDaemon with coalescing, FraudDroid degradation and "
           "artifact write-then-read: batched detector, fallback, run loaders")

    def setup(self):
        fleet = _cold_fleet()
        run_dir = tempfile.mkdtemp(prefix=".hostbench-daemon-", dir=ROOT)
        return {"fleet": fleet, "port": load_detector(), "run_dir": run_dir}

    def unit_size(self, unit):
        return len(unit[0])

    def order(self, state, seed):
        # The fleet order decides which sessions wait past the shedding
        # deadline, so it stays fixed and the quality numbers stay exact.
        # The seed shuffles the directory listing the run loader reads,
        # which load_run must be invariant to (the run digest checks it).
        return [(tuple(DAEMON_POOL), seed)]

    def run_unit(self, state, unit):
        sessions, seed = unit
        fleet = [state["fleet"][i] for i in sessions]
        run_dir = state["run_dir"]
        daemon = DarpaDaemon(fleet, state["port"], config=DAEMON_CONFIG,
                             ct_ms=200.0, mode="full", out_dir=run_dir)
        report = daemon.run()
        listing = sorted(os.listdir(run_dir))
        np.random.default_rng(seed).shuffle(listing)
        watch = Stopwatch()
        model = artifacts.load_run(run_dir, names=listing)
        profile = profiling_io.load_profile(run_dir)
        load_ms = watch.elapsed_ms()

        key = "-".join(str(i) for i in sessions)
        counters = report.counters
        problems = []
        if (counters["decorated"] + counters["degraded"] + counters["shed"]
                != counters["offered"]):
            problems.append(f"{key}: outcomes do not add up to offered")
        if len(model.sessions) != counters["completed"]:
            problems.append(f"{key}: run directory holds "
                            f"{len(model.sessions)} sessions, "
                            f"{counters['completed']} completed")
        digests = {f"{key}/run": digest({
            "outcomes": sorted(report.outcomes.items()),
            "sessions": list(model.sessions),
            "profile": profile.to_json(),
        })}
        verdicts: List[Tuple[bool, bool]] = []
        screens = 0
        for pos in sorted(report.results):
            result = report.results[pos]
            digests[f"{key}/{pos}"] = session_digest(result)
            verdicts.extend(result.screen_verdicts)
            screens += result.screens_analyzed
        return UnitResult(
            screens=screens, digests=digests, verdicts=verdicts,
            problems=problems,
            extra={
                "run_load_ms": load_ms,
                "coalesced_rounds": counters["coalesced_rounds"],
                "coalesced_requests": counters["coalesced_requests"],
                "degraded": counters["degraded"],
            })

    def close(self, state):
        shutil.rmtree(state["run_dir"])


class _Recorder:
    """Forwards ``detect_screens`` and keeps every image's detections."""

    def __init__(self, detector):
        self.detector = detector
        self.outputs: List[list] = []

    def detect_screens(self, images, **kwargs):
        out = self.detector.detect_screens(images, **kwargs)
        self.outputs.extend(out)
        return out


class StaticEval(Workload):
    name = "static_eval"
    why = ("Table III protocol, IoU 0.9, batch 32 over the rendered test "
           "split: the only workload where vision.* (refine, forward) dominates")

    def setup(self):
        _forget_memos()
        dataset = experiments.get_test_dataset()
        return {"dataset": dataset, "port": load_detector()}

    def unit_size(self, unit):
        return len(unit)

    def order(self, state, seed):
        # The seed's permutation of the test split, cut into batch-32
        # units: the seed sets which screens share a plan forward.
        perm = np.random.default_rng(seed).permutation(len(state["dataset"]))
        return [tuple(int(i) for i in perm[start:start + EVAL_BATCH])
                for start in range(0, len(perm), EVAL_BATCH)]

    def run_unit(self, state, indices):
        data = state["dataset"]
        view = type(data)(
            images=data.images[list(indices)],
            labels=[data.labels[i] for i in indices],
            screen_images=[data.screen_images[i] for i in indices],
            screen_labels=[data.screen_labels[i] for i in indices],
        )
        recorder = _Recorder(state["port"])
        result = experiments.evaluate_detector(recorder, view,
                                               batch_size=EVAL_BATCH)
        return UnitResult(
            screens=len(indices),
            digests={str(i): detections_digest(d)
                     for i, d in zip(indices, recorder.outputs)},
            eval_result=result)

    def quality(self, results):
        per_class: Dict[str, ClassMetrics] = {}
        for result in results:
            for name, metrics in result.eval_result.per_class.items():
                per_class[name] = per_class.get(name, ClassMetrics()).merge(
                    metrics)
        overall = EvalResult(per_class).overall
        return {"upo_recall": per_class["UPO"].recall,
                "all_f1": overall.f1,
                # Share of reported boxes that match no labeled box.
                "false_flag_rate": overall.fp / max(1, overall.tp + overall.fp)}


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (FleetCnn, CtSweepOracle, DaemonCnn, StaticEval)}
