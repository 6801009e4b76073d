"""Micro-benchmarks of the hot kernels.

These use pytest-benchmark's repeated timing (no pedantic one-shots):
the conv forward pass, the IoU matrix, NMS, screen rendering, the
view-tree raster of corpus screens, three devices' noisy screenshots in
turn, the detector-input resize, box refinement, oracle-detector DARPA
sessions (the simulated-clock event loop, debounce and decoration),
Monkey taps through the window manager's hit test, a cold build of the
Table VI fleet (the synthetic data generator), and the end-to-end
per-frame detection latency that the paper's overhead model depends
on.  The plan-forward benchmark additionally persists its
timings to ``BENCH_kernels.json`` at the repository root (override the
directory with ``DARPA_BENCH_OUT``; the payload carries a provenance
manifest), so the serving-path speedup is machine-checkable across
commits.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.android import Device, Screen, View, WindowManager, render_screen
from repro.android.view import Shape, Visibility
from repro.bench import experiments, print_table
from repro.bench.experiments import build_runtime_fleet, run_darpa_session
from repro.bench.kernels import _best_of_ms, run_kernel_bench
from repro.datagen import build_aui_screen, build_corpus
from repro.datagen.corpus import render_state
from repro.datagen.specs import AuiType, SampleSpec
from repro.geometry import Rect, ScoredBox, non_max_suppression, pairwise_iou
from repro.imaging.color import PALETTE
from repro.imaging.filters import resize
from repro.vision import TinyYolo, YoloConfig
from repro.vision.dataset import INPUT_H, INPUT_W
from repro.vision.nn import Conv2D
from repro.vision.refine import refine_detection_box


@pytest.fixture(scope="module")
def rendered_screen():
    """(pixels, labels) of one rendered AUI screen."""
    spec = SampleSpec(index=0, aui_type=AuiType.ADVERTISEMENT, has_ago=True,
                      n_upo=1, ago_central=True, upo_corner=True,
                      fullscreen=False, first_party=False, hard_upo=False,
                      style_seed=99)
    return render_state(build_aui_screen(spec))


@pytest.fixture(scope="module")
def screen_image(rendered_screen):
    return rendered_screen[0]


def test_micro_conv_forward(benchmark):
    conv = Conv2D(16, 24, kernel=3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(0, 1, (1, 16, 64, 36)).astype(np.float32)
    out = benchmark(lambda: conv.forward(x))
    assert out.shape == (1, 24, 64, 36)


def test_micro_pairwise_iou(benchmark):
    rng = np.random.default_rng(0)
    boxes = [Rect(float(rng.uniform(0, 300)), float(rng.uniform(0, 600)),
                  float(rng.uniform(10, 60)), float(rng.uniform(10, 60)))
             for _ in range(64)]
    matrix = benchmark(lambda: pairwise_iou(boxes, boxes))
    assert matrix.shape == (64, 64)


def test_micro_nms(benchmark):
    rng = np.random.default_rng(0)
    boxes = [ScoredBox(Rect(float(rng.uniform(0, 300)), float(rng.uniform(0, 600)),
                            30, 30), "UPO", float(rng.uniform(0.1, 1.0)))
             for _ in range(48)]
    kept = benchmark(lambda: non_max_suppression(boxes))
    assert kept


def test_micro_render_screen(benchmark):
    device = Device(seed=0)
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    for i in range(12):
        root.add_child(View(bounds=Rect(20, 20 + i * 44, 320, 36),
                            bg_color=PALETTE["light_gray"], corner_radius=6))
    device.window_manager.attach_app_window(root, "com.demo")
    canvas = benchmark(lambda: render_screen(device.window_manager))
    assert canvas.pixels.shape == (640, 360, 3)


def _views(root):
    yield root
    for child in root.children:
        yield from _views(child)


def test_micro_raster_corpus(benchmark):
    """The noiseless view-tree raster of eight fixed seed-0 corpus
    screens, windowed and full-screen, which between them draw
    pseudo-text, crosses, circles and rounded rects."""
    corpus = build_corpus(seed=0, n_negatives=4)
    states = [s.screen for s in corpus.samples[:4]] + list(corpus.negatives)
    wms = []
    for state in states:
        wm = WindowManager(Screen())
        wm.attach_app_window(state.root, "com.dataset.render",
                             fullscreen=state.fullscreen)
        wms.append(wm)
    views = [v for s in states for v in _views(s.root)]
    assert any(v.text for v in views)
    assert any(v.icon == "cross" for v in views)
    assert any(v.shape is Shape.CIRCLE or v.icon == "circle" for v in views)
    assert any(v.shape is Shape.ROUNDED for v in views)
    assert {s.fullscreen for s in states} == {True, False}
    canvases = benchmark(lambda: [render_screen(wm) for wm in wms])
    assert [c.pixels.shape for c in canvases] == [(640, 360, 3)] * len(wms)


def test_micro_render_lockstep(benchmark):
    """Three devices' screenshots in turn, as the daemon's lockstep
    session threads take them: one round renders a fixed seed-0 corpus
    screen per device with sensor noise from the device's generator, so
    the noise helper serves three generators' streams at once."""
    corpus = build_corpus(seed=0, n_negatives=4)
    devices = []
    for k, sample in enumerate(corpus.samples[:3]):
        device = Device(seed=k)
        device.window_manager.attach_app_window(
            sample.screen.root, "com.dataset.render",
            fullscreen=sample.screen.fullscreen)
        devices.append(device)

    def round_robin():
        return [render_screen(d.window_manager, noise_rng=d.rng)
                for d in devices]

    canvases = benchmark(round_robin)
    assert [c.pixels.shape for c in canvases] == [(640, 360, 3)] * 3
    assert all(0.0 <= c.pixels.min() and c.pixels.max() <= 1.0
               for c in canvases)


def test_micro_resize(benchmark, screen_image):
    """Detector-input resize, 640x360x3 -> 128x72."""
    small = benchmark(lambda: resize(screen_image, INPUT_H, INPUT_W))
    assert small.shape == (INPUT_H, INPUT_W, 3)


def test_micro_refine_box(benchmark, rendered_screen):
    """Box refinement of the screen's label rects, each shifted and
    resized as a coarse grid regressor leaves it (no trained model)."""
    image, labels = rendered_screen
    rng = np.random.default_rng(0)
    rects = [Rect.from_center(rect.center[0] + rng.uniform(-0.1, 0.1) * rect.w,
                              rect.center[1] + rng.uniform(-0.1, 0.1) * rect.h,
                              rect.w * rng.uniform(0.8, 1.3),
                              rect.h * rng.uniform(0.8, 1.3))
             for _, rect in labels]
    refined = benchmark(lambda: [refine_detection_box(image, r) for r in rects])
    assert len(refined) == len(rects) >= 2


def test_micro_oracle_session(benchmark):
    """Seed-0 fleet sessions under the oracle detector at ct = 200 ms, the
    unit of the Table VIII ct sweep: one minute of Monkey taps and app
    timelines through the simulated clock, the debouncer and the
    decorator, with no model and no screenshots."""
    fleet = build_runtime_fleet(8, seed=0)

    def sessions():
        return [run_darpa_session(session, "oracle", ct_ms=200.0, mode="full",
                                  monkey_seed=1000 + i).screens_analyzed
                for i, session in enumerate(fleet)]

    screens = benchmark(sessions)
    assert sum(screens) > 0
    assert sessions() == screens


def _reference_hit(view, x, y):
    """The recursive hit test ``View.hit_test`` must agree with."""
    if view.visibility is not Visibility.VISIBLE:
        return None
    if not view.bounds.contains_point(x, y):
        return None
    for child in reversed(view.children):
        hit = _reference_hit(child, x, y)
        if hit is not None:
            return hit
    return view if view.clickable else None


def test_micro_dispatch_click(benchmark):
    """Monkey taps routed through ``WindowManager.dispatch_click``: 20
    seeded taps on every screen of the 8-app seed-0 fleet, each screen
    mounted as its app window (windowed or full-screen), with the same
    hits as a recursive reference walk."""
    screen = Screen()
    wms = []
    for session in build_runtime_fleet(8, seed=0):
        for step in session.spec.timeline.steps:
            wm = WindowManager(screen)
            wm.attach_app_window(step.screen.root, session.spec.package,
                                 fullscreen=step.screen.fullscreen)
            wms.append(wm)
    rng = np.random.default_rng(0)
    taps = [(wm, float(rng.uniform(0, screen.width)),
             float(rng.uniform(0, screen.height)))
            for wm in wms for _ in range(20)]
    expected = []
    for wm, x, y in taps:
        (window,) = wm.windows
        expected.append(_reference_hit(window.root, x - window.offset.x,
                                       y - window.offset.y))
    assert any(hit is not None for hit in expected)
    assert any(hit is None for hit in expected)
    hits = benchmark(lambda: [wm.dispatch_click(x, y) for wm, x, y in taps])
    assert all(hit is want for hit, want in zip(hits, expected))


def test_micro_cold_fleet(benchmark):
    """One cold build of the Table VI fleet, ``build_runtime_fleet(100,
    seed=0)``, with the corpus memo cleared first as every hostbench
    set-up clears it: the app profiles, the sample specs and about 700
    generated view trees, none of them rendered."""
    def cold_fleet():
        experiments._corpus_memo.clear()
        return build_runtime_fleet(100, seed=0)

    fleet = benchmark(cold_fleet)
    assert len(fleet) == 100
    assert all(session.aui_screens and session.non_aui_screens
               for session in fleet)


def test_micro_detect_screen_latency(benchmark, trained_model, screen_image):
    """Per-frame end-to-end latency (preprocess + CNN + refine)."""
    dets = benchmark(lambda: trained_model.detect_screen(screen_image))
    assert isinstance(dets, list)


def test_micro_kernel_modes():
    """Plan forward per batch size; persists ``BENCH_kernels.json``.

    Runs the shared :func:`repro.bench.kernels.run_kernel_bench` timing
    of the per-image fp32 plan and re-measures the legacy per-image
    training-graph forward *in the same process*, so the acceptance
    ratio compares two numbers from the same machine state — robust to
    host speed, unlike a bar against the committed absolute
    milliseconds.
    """
    out_dir = Path(os.environ.get(
        "DARPA_BENCH_OUT", str(Path(__file__).resolve().parents[1])))
    payload = run_kernel_bench(out_path=str(out_dir / "BENCH_kernels.json"))

    # Same-machine reference: the training graph looped image-by-image
    # (weights don't affect timing, so the seeded untrained model is
    # exactly as heavy as the trained one).
    model = TinyYolo(YoloConfig(), seed=0)
    x = np.random.default_rng(0).random(
        (32, 3, model.config.input_h, model.config.input_w), dtype=np.float32)
    looped_ms = _best_of_ms(lambda: [
        model.forward(x[i:i + 1], training=False) for i in range(32)],
        rounds=3)

    best_ms = payload["forward_ms"]["32"]
    print_table(["Batch", "forward ms"], list(payload["forward_ms"].items()),
                title="TinyYolo plan forward")
    print(f"legacy looped forward: {looped_ms:.1f} ms "
          f"({looped_ms / best_ms:.2f}x the batch-32 plan); plan vs "
          f"{payload['baseline_ms_batch32']} ms historical baseline: "
          f"{payload['speedup_vs_baseline_batch32']:.2f}x")

    assert looped_ms / best_ms >= 4.0, (
        f"best plan mode must be >=4x faster than the looped training "
        f"graph, got {looped_ms / best_ms:.2f}x")
    assert payload["speedup_vs_baseline_batch32"] > 1.0
