"""Kernel benchmark: the TinyYolo plan forward across batch sizes.

One runner shared by ``python -m repro bench kernels`` and the pytest
benchmark suite, so the committed ``BENCH_kernels.json`` and the CI
regression gate always measure the same thing: the per-image fp32
:class:`repro.vision.nn.InferencePlan` forward, the only execution path
the serving code has.

Timings are best-of-``rounds`` wall milliseconds, each after one
untimed warm-up call, through :mod:`repro.wallclock` — the one
sanctioned clock.
The model is the seeded *untrained* TinyYolo: forward cost is
weight-independent, and skipping training keeps the benchmark cheap
enough for CI.  Accuracy claims (the Table-IV weight-quantization
delta) live in the porting tests against a trained model, not here.

The payload is stamped with a provenance manifest
(:mod:`repro.bench.provenance`); ``repro regress`` refuses to compare
payloads from different benchmark configurations.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

import numpy as np

from repro.bench.provenance import build_manifest
from repro.wallclock import monotonic_ms

#: Historical batch-32 reference from the pre-kernel serving path
#: (BENCH_kernels.json as of the observability PR).  A constant, not a
#: measurement: it anchors ``speedup_vs_baseline_batch32`` so the
#: headline number survives payload regeneration on faster machines.
BASELINE_MS_BATCH32 = 73.195

CORPUS_VERSION = "synthetic-uniform-v1"
SEED_BASE = 0


def _best_of_ms(fn, rounds: int) -> float:
    """Best-of-N wall milliseconds after one untimed warm-up call."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = monotonic_ms()
        fn()
        best = min(best, monotonic_ms() - t0)
    return best


def run_kernel_bench(
    batch_sizes: Tuple[int, ...] = (1, 8, 32),
    rounds: int = 9,
    seed: int = SEED_BASE,
    out_path: Optional[str] = None,
) -> Dict:
    """Time the plan forward per batch size; return (and optionally
    write) the payload.

    Raises ``ValueError`` for settings that cannot produce a timing:
    ``rounds < 1``, or an empty batch list or a non-positive batch.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not batch_sizes or min(batch_sizes) < 1:
        raise ValueError(
            f"batch sizes must be a non-empty list of positive ints, "
            f"got {list(batch_sizes)}")
    from repro.vision import TinyYolo, YoloConfig

    config = YoloConfig()
    rng = np.random.default_rng(seed)
    max_batch = max(batch_sizes)
    # RGB input tensors at the detector's native resolution.
    x = rng.random((max_batch, 3, config.input_h, config.input_w),
                   dtype=np.float32)
    bench_config = {
        "batch_sizes": list(batch_sizes),
        "rounds": int(rounds),
        "input_shape": list(x.shape[1:]),
        "seed": int(seed),
    }

    plan = TinyYolo(config, seed=seed).inference_plan()
    forward_ms = {}
    for n in batch_sizes:
        xb = x[:n]
        forward_ms[str(n)] = round(_best_of_ms(lambda: plan.forward(xb),
                                               rounds), 3)
    payload = {
        "manifest": build_manifest(CORPUS_VERSION, seed, bench_config),
        "kernel": "tiny_yolo_forward",
        "input_shape": list(x.shape[1:]),
        "batch_sizes": list(batch_sizes),
        "forward_ms": forward_ms,
    }
    if 32 in batch_sizes:
        payload["baseline_ms_batch32"] = BASELINE_MS_BATCH32
        payload["speedup_vs_baseline_batch32"] = round(
            BASELINE_MS_BATCH32 / forward_ms["32"], 3)
    if out_path:
        with open(out_path, "w") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")
    return payload


__all__ = ["BASELINE_MS_BATCH32", "CORPUS_VERSION", "SEED_BASE",
           "run_kernel_bench"]
