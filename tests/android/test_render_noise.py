"""Sensor noise drawn on the helper thread: up to two frames ahead of
each generator's screenshots, or while the window stack rasterises.

``render_screen`` must give the same pixels, and leave the noise
generator in the same state, as rasterising first and then adding the
full-frame noise (the reference below, the formula
``tests/imaging/test_canvas.py`` keeps).  These tests cover corpus
screens (windowed, full-screen, with overlays), the hand-over of the
rows the helper has not reached, the per-generator streams (a complete
head taken while the helper draws the next frame, an incomplete head
taken over with the frame behind it kept, frames dropped by a draw
between renders, also while the helper is mid-block, never seen from
outside a render, never queued for one-shot generators), generators
interleaved in seeded schedules, the three shared frame buffers
(sequential devices keep two frames ahead after a switch), the
two-CPU rule (on one CPU, or without CPU affinity, no helper starts),
the inline path a render takes when another render owns its generator,
the error paths, stub screenshots, and fork children of a process that
has rendered.
"""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.android.renderer as renderer
import repro.imaging.canvas as canvas_module
from repro.android import Device, LayoutParams, Screen, View, WindowManager
from repro.android.accessibility import AccessibilityService
from repro.android.renderer import render_screen
from repro.datagen import build_corpus
from repro.datagen.corpus import render_state
from repro.geometry import Rect
from repro.imaging.canvas import NOISE_ROWS, apply_noise, draw_noise
from repro.imaging.color import PALETTE

SCALE = 0.008


def _reference(wm, rng, scale=SCALE):
    """Rasterise with no noise, then the original full-frame formula."""
    pixels = render_screen(wm).pixels
    noise = rng.normal(0.0, scale, size=pixels.shape).astype(np.float32)
    return np.clip(pixels + noise, 0.0, 1.0)


def _bits(pixels):
    return np.ascontiguousarray(pixels).view(np.uint32)


def _same_generator(a, b):
    return (a.bit_generator.state == b.bit_generator.state
            and a.normal() == b.normal())


def _nothing_queued():
    """No render owns a stream and no frame is queued."""
    helper = renderer._helper
    with helper._cond:
        return not any(s.claimed or s.frames
                       for s in helper._streams.values())


def _frames(rng):
    """The frames queued for ``rng``, in stream order."""
    stream = renderer._helper._streams.get(id(rng))
    return list(stream.frames) if stream is not None else []


def _reset_helper():
    """Drop every queued frame, forget every generator and every
    buffer."""
    helper = renderer._helper
    with helper._cond:
        for stream in list(helper._streams.values()):
            assert not stream.claimed
            helper._remove(stream, stream.frames)
        helper._streams.clear()
        helper._shape = None  # the next frame allocates afresh


class _HoldStream:
    """Mark ``rng``'s stream as owned by a render, as another thread
    mid-render of the same generator would."""

    def __init__(self, rng):
        self.rng = rng

    def __enter__(self):
        helper = renderer._helper
        with helper._cond:
            stream = helper._streams.get(id(self.rng))
            if stream is None:
                stream = helper._record(self.rng)
            assert not stream.claimed
            stream.claimed = True

    def __exit__(self, *exc):
        helper = renderer._helper
        with helper._cond:
            helper._streams[id(self.rng)].claimed = False


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # The helper runs only in a process that may use two CPUs; make this
    # one look so, whatever machine the tests run on.
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1})
    # A look-ahead left by an earlier test would still be drawing
    # through the names a test is about to patch.
    _reset_helper()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=0, n_negatives=4)


def _window_manager(state, overlays=0):
    wm = WindowManager(Screen())
    wm.attach_app_window(state.root, "com.dataset.render",
                         fullscreen=state.fullscreen)
    for k in range(overlays):
        view = View(bounds=Rect(0, 0, 1, 1), bg_color=PALETTE["red"],
                    bg_alpha=0.5)
        wm.add_view(view, LayoutParams(x=20 + 40 * k, y=60, width=90,
                                       height=30), "com.darpa")
    return wm


def _states(corpus):
    """Windowed and full-screen corpus screens, AUI and negative."""
    states = [s.screen for s in corpus.samples[:12]] + list(corpus.negatives)
    kinds = {s.fullscreen for s in states}
    assert kinds == {True, False}, "corpus slice lacks a layout kind"
    return states


class TestMatchesSequentialReference:
    @pytest.mark.parametrize("overlays", [0, 2])
    def test_corpus_screens(self, corpus, overlays):
        for i, state in enumerate(_states(corpus)):
            wm = _window_manager(state, overlays)
            rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
            got = render_screen(wm, noise_rng=rng, noise_scale=SCALE).pixels
            want = _reference(wm, ref_rng)
            assert got.dtype == np.float32
            assert np.array_equal(_bits(got), _bits(want)), i
            assert _same_generator(rng, ref_rng), i
        assert _nothing_queued()

    def test_one_generator_across_frames(self, corpus):
        # A device's generator feeds every screenshot in turn.
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for state in _states(corpus)[:6]:
            wm = _window_manager(state, overlays=1)
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    @pytest.mark.parametrize("h,w", [(1, 3), (23, 37), (16, 5), (33, 360),
                                     (640, 360)])
    def test_full_frame_draw_then_apply(self, h, w):
        base = np.random.default_rng(h * w).random((h, w, 3),
                                                   dtype=np.float32)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        noise = np.empty((h, w, 3), dtype=np.float32)
        draw_noise(rng, noise, 0.3)
        got = base.copy()
        apply_noise(got, noise)
        want = np.clip(base + ref_rng.normal(0.0, 0.3, size=base.shape)
                       .astype(np.float32), 0.0, 1.0)
        assert np.array_equal(_bits(got), _bits(want))
        assert _same_generator(rng, ref_rng)


def _record_draw_threads(monkeypatch):
    """Spy on ``draw_noise`` (helper and inline callers); return the
    set of threads that drew."""
    threads = set()
    real = canvas_module.draw_noise

    def spy(rng, out, *args):
        threads.add(threading.current_thread())
        real(rng, out, *args)

    monkeypatch.setattr(renderer, "draw_noise", spy)
    monkeypatch.setattr(canvas_module, "draw_noise", spy)
    return threads


def _clone_ids():
    """The ids of every clone the helper holds, pooled or in a stream."""
    helper = renderer._helper
    with helper._cond:
        return ({id(c) for c in helper._clones}
                | {id(s.clone) for s in helper._streams.values() if s.clone})


class TestHelperThread:
    def test_helper_draws_while_the_raster_runs(self, corpus, monkeypatch):
        # The raster waits until the helper has drawn every row, so the
        # rendering thread is left only an empty slice to draw.
        wm = _window_manager(corpus.samples[0].screen)
        height = wm.screen.height
        rows = {}
        done = threading.Event()
        real_draw, real_tree = renderer.draw_noise, renderer.render_view_tree

        def spy(rng, out, *args):
            real_draw(rng, out, *args)
            me = threading.current_thread()
            rows[me] = rows.get(me, 0) + len(out)
            if rows[me] == height:
                done.set()

        def waiting_tree(canvas, root, offset):
            assert done.wait(timeout=60)
            real_tree(canvas, root, offset)

        monkeypatch.setattr(renderer, "draw_noise", spy)
        monkeypatch.setattr(renderer, "render_view_tree", waiting_tree)
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        got = render_screen(wm, noise_rng=rng).pixels
        me = threading.current_thread()
        helpers = [t for t in rows if t is not me]
        assert len(helpers) == 1 and rows[helpers[0]] == height
        assert rows.get(me, 0) == 0
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)
        assert _nothing_queued()

    def test_rendering_thread_draws_the_rows_left(self, corpus, monkeypatch):
        # A helper held up on its second block (as on a core shared with
        # other work) hands the rest of the frame to the rendering thread.
        wm = _window_manager(corpus.samples[0].screen, overlays=1)
        rows = {}
        raster_done = threading.Event()
        real_draw, real_raster = renderer.draw_noise, renderer._rasterise

        def spy(rng, out, *args):
            me = threading.current_thread()
            if me is not main and rows.get(me):
                assert raster_done.wait(timeout=60)
            real_draw(rng, out, *args)
            rows[me] = rows.get(me, 0) + len(out)

        def raster(wm, canvas):
            real_raster(wm, canvas)
            raster_done.set()

        main = threading.current_thread()
        monkeypatch.setattr(renderer, "draw_noise", spy)
        monkeypatch.setattr(renderer, "_rasterise", raster)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = render_screen(wm, noise_rng=rng).pixels
        helper_rows = sum(n for t, n in rows.items() if t is not main)
        assert helper_rows == 2 * NOISE_ROWS
        assert rows[main] == wm.screen.height - helper_rows
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)
        assert _nothing_queued()

    def test_helpers_reuse_three_frame_buffers(self, corpus, monkeypatch):
        # The frame buffers (at most three, shared by all streams), the
        # helper's block buffer, the take-over block buffer and the
        # clones are allocated once per frame shape and reused.
        helper = renderer._helper
        real = renderer.draw_noise
        main = threading.current_thread()
        take_overs = []

        def spy(rng, out, scale, scratch=None):
            if threading.current_thread() is main:
                take_overs.append(scratch)
            real(rng, out, scale, scratch)

        monkeypatch.setattr(renderer, "draw_noise", spy)
        wm = _window_manager(corpus.samples[0].screen)
        render_screen(wm, noise_rng=np.random.default_rng(1))
        # A one-shot render needs one buffer.
        assert len(helper._buffers) == 1
        rngs = [np.random.default_rng(2), np.random.default_rng(3)]
        for _ in range(3):  # frames taken from the look-ahead too
            for rng in rngs:
                render_screen(_window_manager(corpus.samples[1].screen),
                              noise_rng=rng)
        frames = list(helper._buffers)
        scratch, clones = helper._scratch, _clone_ids()
        assert len(frames) == renderer._LookAhead.BUFFERS == 3
        assert all(f.shape == (640, 360, 3) and f.dtype == np.float32
                   for f in frames)
        assert scratch.shape == (NOISE_ROWS, 360, 3)
        for _ in range(3):
            for rng in rngs + [np.random.default_rng(4)]:
                render_screen(_window_manager(corpus.samples[1].screen),
                              noise_rng=rng)
        assert all(a is b for a, b in zip(helper._buffers, frames))
        assert len(helper._buffers) == 3
        assert helper._scratch is scratch
        # Every take-over drew into the same block buffer.
        assert take_overs and all(b is take_overs[0] for b in take_overs)
        assert take_overs[0].shape == (NOISE_ROWS, 360, 3)
        # Clones are reused too: one per stream with frames, at most.
        assert len(clones | _clone_ids()) <= 3
        small = WindowManager(Screen(width=100, height=200))
        small.attach_app_window(View(bounds=Rect(0, 0, 100, 128),
                                     bg_color=PALETTE["white"]), "com.demo")
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = render_screen(small, noise_rng=rng).pixels
        assert [f.shape for f in helper._buffers] == [(200, 100, 3)]
        assert np.array_equal(_bits(got), _bits(_reference(small, ref_rng)))

    def test_no_noise_starts_no_helper(self, corpus, monkeypatch):
        threads = _record_draw_threads(monkeypatch)
        render_screen(_window_manager(corpus.samples[0].screen))
        assert threads == set()

    def test_screenshot_draws_from_the_device_generator(self, corpus):
        device = Device(seed=3)
        state = corpus.samples[3].screen
        device.window_manager.attach_app_window(state.root, "com.demo",
                                                fullscreen=state.fullscreen)
        shot = AccessibilityService(device).take_screenshot()
        ref_rng = np.random.default_rng(3)
        want = _reference(device.window_manager, ref_rng)
        assert np.array_equal(_bits(shot.pixels), _bits(want))
        assert _same_generator(device.rng, ref_rng)

    def test_stub_screenshot_starts_no_helper(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stub screenshot started a noise draw")

        monkeypatch.setattr(renderer._LookAhead, "claim", refuse)
        monkeypatch.setattr(renderer._LookAhead, "look_ahead", refuse)
        device = Device(seed=3)
        before = device.rng.bit_generator.state
        shot = AccessibilityService(device).take_screenshot(stub=True)
        assert shot.pixels.shape == (1, 1, 3)
        assert device.rng.bit_generator.state == before


def _assert_inline_without_helper(corpus, monkeypatch):
    """Consecutive screenshots of one device generator (the look-ahead
    case from its second on) and a one-shot render all draw inline: no
    helper thread starts, no stream is recorded, and pixels and
    generator state equal the reference."""
    fresh = renderer._LookAhead()
    monkeypatch.setattr(renderer, "_helper", fresh)
    threads = _record_draw_threads(monkeypatch)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for state in _states(corpus)[:3]:
        wm = _window_manager(state, overlays=1)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
    assert _same_generator(rng, ref_rng)
    wm = _window_manager(corpus.samples[1].screen)
    got = render_screen(wm, noise_rng=np.random.default_rng(9)).pixels
    want = _reference(wm, np.random.default_rng(9))
    assert np.array_equal(_bits(got), _bits(want))
    assert threads == {threading.current_thread()}
    assert fresh._thread is None and fresh._streams == {}


class TestIdleCoreCheck:
    """The helper is used if and only if the process may run on two
    CPUs or more."""

    def test_calling_thread_fills_a_single_cpu(self, corpus, monkeypatch):
        monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        _assert_inline_without_helper(corpus, monkeypatch)

    def test_without_cpu_affinity_no_core_is_idle(self, corpus,
                                                   monkeypatch):
        monkeypatch.delattr(renderer.os, "sched_getaffinity")
        _assert_inline_without_helper(corpus, monkeypatch)

    def test_no_idle_core_draws_inline(self, corpus, monkeypatch):
        # Pinned to one CPU that is not CPU 0 (``taskset -c 1``); with a
        # second CPU the same render takes the process's helper.
        shared = renderer._helper
        monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {1})
        _assert_inline_without_helper(corpus, monkeypatch)
        monkeypatch.setattr(renderer, "_helper", shared)
        monkeypatch.setattr(renderer.os, "sched_getaffinity",
                            lambda pid: {1, 3})
        threads = _record_draw_threads(monkeypatch)
        wm = _window_manager(corpus.samples[1].screen)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = render_screen(wm, noise_rng=rng).pixels
        assert any(t.name == "render-noise" for t in threads)
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)
        assert _nothing_queued()


class TestOwnedGeneratorDrawsInline:
    def test_owned_generator_draws_on_the_rendering_thread(self, corpus,
                                                           monkeypatch):
        threads = _record_draw_threads(monkeypatch)
        wm = _window_manager(corpus.samples[1].screen, overlays=1)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        with _HoldStream(rng):
            got = render_screen(wm, noise_rng=rng).pixels
        assert threads == {threading.current_thread()}
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_a_busy_helper_takes_another_generators_frame(self, corpus,
                                                          monkeypatch):
        # The helper is held in a block of one generator's look-ahead:
        # another generator's render still queues its current frame on
        # the helper instead of drawing inline.
        started, release = TestLookAhead._hold_look_ahead(monkeypatch)
        inline = []
        real_add = canvas_module.Canvas.add_noise

        def add_noise(self, *args, **kwargs):
            inline.append(1)
            real_add(self, *args, **kwargs)

        monkeypatch.setattr(canvas_module.Canvas, "add_noise", add_noise)
        wm = _window_manager(corpus.samples[2].screen)
        device = np.random.default_rng(40)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=device)
            assert started.wait(timeout=60)
            rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
            claims = []
            real_claim = renderer._LookAhead.claim

            def claim(self, rng, shape, scale):
                claims.append(real_claim(self, rng, shape, scale))
                return claims[-1]

            monkeypatch.setattr(renderer._LookAhead, "claim", claim)
            got = render_screen(wm, noise_rng=rng).pixels
        finally:
            release.set()
        assert claims[0] is not None and not inline
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_threads_render_at_once(self, corpus, monkeypatch):
        # More rendering threads than cores, switching often: each frame
        # must still equal its reference, whichever path drew its noise.
        states = _states(corpus)[:6]
        wms = [_window_manager(s, overlays=k % 2)
               for k, s in enumerate(states)]
        expected = [_reference(wm, np.random.default_rng(100 + k))
                    for k, wm in enumerate(wms)]
        helpers = set()
        real = renderer.draw_noise

        def recording(rng, out, *args):
            me = threading.current_thread()
            if me.name == "render-noise":
                helpers.add(me)
            real(rng, out, *args)

        monkeypatch.setattr(renderer, "draw_noise", recording)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results = {}
        errors = []

        def worker(w):
            try:
                barrier.wait()
                for rep in range(2):
                    for k, wm in enumerate(wms):
                        rng = np.random.default_rng(100 + k)
                        results[(w, k, rep)] = render_screen(
                            wm, noise_rng=rng).pixels
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert not errors, errors
        assert len(results) == n_threads * 2 * len(wms)
        for (_, k, _), pixels in results.items():
            assert np.array_equal(_bits(pixels), _bits(expected[k])), k
        # One helper thread, process-wide.
        assert len(helpers) == 1
        assert _nothing_queued()

    def test_threads_render_their_own_generators_at_once(self, corpus):
        # Five threads on two cores, switching often, each rendering its
        # own device generator in turn: the streams share three buffers,
        # so renders on one thread reclaim frames of the others while
        # the helper draws them.  Every frame and every final generator
        # state must still equal the sequential order.
        states = _states(corpus)[:4]
        wms = [_window_manager(s, overlays=k % 2)
               for k, s in enumerate(states)]
        n_threads, rounds = 5, 3
        expected = {}
        for w in range(n_threads):
            ref = np.random.default_rng(200 + w)
            expected[w] = [_reference(wm, ref) for _ in range(rounds)
                           for wm in wms]
            expected[w].append(ref.bit_generator.state)
        barrier = threading.Barrier(n_threads)
        results, errors = {}, []

        def worker(w):
            try:
                rng = np.random.default_rng(200 + w)
                barrier.wait()
                frames = [render_screen(wm, noise_rng=rng).pixels
                          for _ in range(rounds) for wm in wms]
                results[w] = frames + [rng.bit_generator.state]
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert not errors, errors
        for w in range(n_threads):
            got, want = results[w], expected[w]
            assert got[-1] == want[-1], w
            for k, (a, b) in enumerate(zip(got[:-1], want[:-1])):
                assert np.array_equal(_bits(a), _bits(b)), (w, k)
        helper = renderer._helper
        assert len(helper._buffers) <= renderer._LookAhead.BUFFERS
        assert not any(s.claimed for s in helper._streams.values())


class TestErrorPaths:
    def test_raster_error_leaves_the_generator_untouched(self, corpus,
                                                         monkeypatch):
        def broken(canvas, root, offset):
            raise RuntimeError("raster failed")

        monkeypatch.setattr(renderer, "render_view_tree", broken)
        rng = np.random.default_rng(12)
        before = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="raster failed"):
            render_screen(_window_manager(corpus.samples[0].screen),
                          noise_rng=rng)
        assert rng.bit_generator.state == before
        assert rng.normal() == np.random.default_rng(12).normal()
        assert _nothing_queued()

    def test_helper_error_surfaces_from_render_screen(self, corpus,
                                                      monkeypatch):
        # An error only the helper meets is not lost when the rendering
        # thread finishes the frame.
        main = threading.current_thread()
        failed = threading.Event()
        real_draw, real_tree = renderer.draw_noise, renderer.render_view_tree

        def failing(rng, out, *args):
            if threading.current_thread() is not main:
                failed.set()
                raise RuntimeError("helper draw failed")
            real_draw(rng, out, *args)

        def waiting_tree(canvas, root, offset):
            assert failed.wait(timeout=60)
            real_tree(canvas, root, offset)

        monkeypatch.setattr(renderer, "draw_noise", failing)
        monkeypatch.setattr(renderer, "render_view_tree", waiting_tree)
        with pytest.raises(RuntimeError, match="helper draw failed"):
            render_screen(_window_manager(corpus.samples[0].screen),
                          noise_rng=np.random.default_rng(14))
        assert _nothing_queued()

    def test_draw_error_surfaces_from_render_screen(self, corpus):
        wm = _window_manager(corpus.samples[0].screen)
        rng = np.random.default_rng(13)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="scale"):
            render_screen(wm, noise_rng=rng, noise_scale=-1.0)
        # Sequential order: rng.normal rejects the scale before drawing.
        ref_rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="scale"):
            render_screen(wm).add_noise(ref_rng, scale=-1.0)
        assert rng.bit_generator.state == before == ref_rng.bit_generator.state
        assert _nothing_queued()
        # The next render gets the helper back.
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))


class TestLookAhead:
    """The next frame's noise, drawn after a render from a clone of its
    generator and taken over by the generator's next render."""

    @staticmethod
    def _record_claims(monkeypatch):
        """Spy on ``claim``; return, per render, whether it took a
        pre-drawn look-ahead."""
        taken = []
        real = renderer._LookAhead.claim

        def claim(self, rng, shape, scale):
            frames = _frames(rng)
            owned = real(self, rng, shape, scale)
            # A current frame queued for this render would be a new head.
            taken.append(owned is not None and bool(frames)
                         and owned.frames[0] is frames[0])
            return owned

        monkeypatch.setattr(renderer._LookAhead, "claim", claim)
        return taken

    @staticmethod
    def _hold_look_ahead(monkeypatch):
        """Make the helper wait before each block of a frame that is not
        the head of a claimed stream (a look-ahead) in this process;
        return the (started, release) events."""
        main, pid = threading.current_thread(), os.getpid()
        started, release = threading.Event(), threading.Event()
        real = renderer.draw_noise

        def claimed_head(out):
            return any(s.claimed and s.frames and s.frames[0].noise is out.base
                       for s in renderer._helper._streams.values())

        def held(rng, out, *args):
            if (threading.current_thread() is not main
                    and os.getpid() == pid and not claimed_head(out)):
                started.set()
                release.wait(timeout=60)
            real(rng, out, *args)

        monkeypatch.setattr(renderer, "draw_noise", held)
        return started, release

    def test_device_screenshots_take_the_look_ahead(self, corpus,
                                                    monkeypatch):
        taken = self._record_claims(monkeypatch)
        device = Device(seed=7)
        state = corpus.samples[4].screen
        wm = device.window_manager
        wm.attach_app_window(state.root, "com.demo",
                             fullscreen=state.fullscreen)
        service = AccessibilityService(device)
        ref_rng = np.random.default_rng(7)
        for k in range(4):
            shot = service.take_screenshot()
            want = _reference(wm, ref_rng)
            assert np.array_equal(_bits(shot.pixels), _bits(want)), k
            assert device.rng.bit_generator.state == \
                ref_rng.bit_generator.state
            # The next frame differs in content as well as in noise.
            view = View(bounds=Rect(0, 0, 1, 1), bg_color=PALETTE["red"],
                        bg_alpha=0.5)
            wm.add_view(view, LayoutParams(x=10 + 30 * k, y=90, width=60,
                                           height=40), "com.darpa")
        # A look-ahead starts once a generator has fed two renders.
        assert taken == [False, False, True, True]
        assert _same_generator(device.rng, ref_rng)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64])
    def test_other_bit_generators_take_the_look_ahead(self, corpus,
                                                      monkeypatch,
                                                      bit_generator):
        # Some of these keep arrays in their state.
        taken = self._record_claims(monkeypatch)
        wm = _window_manager(corpus.samples[9].screen)
        rng = np.random.Generator(bit_generator(11))
        ref_rng = np.random.Generator(bit_generator(11))
        for _ in range(4):
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert taken == [False, False, True, True]
        assert renderer._same_state(rng.bit_generator.state,
                                    ref_rng.bit_generator.state)
        assert rng.normal() == ref_rng.normal()

    def test_a_draw_between_renders_discards_the_look_ahead(self, corpus,
                                                            monkeypatch):
        taken = self._record_claims(monkeypatch)
        wm = _window_manager(corpus.samples[5].screen, overlays=1)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for step in range(4):
            if step == 2:
                assert _frames(rng)
                assert rng.normal(size=5).tolist() == \
                    ref_rng.normal(size=5).tolist()
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert taken == [False, False, False, True]
        assert _same_generator(rng, ref_rng)

    def test_generator_state_between_renders_is_sequential(self, corpus,
                                                           monkeypatch):
        started, release = self._hold_look_ahead(monkeypatch)
        wm = _window_manager(corpus.samples[6].screen)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=rng)
                _reference(wm, ref_rng)
            assert started.wait(timeout=60)
            # The look-ahead is under way and has not touched rng.
            assert _frames(rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        finally:
            release.set()
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    @staticmethod
    def _frame_start(seed, frames):
        """The state of ``default_rng(seed)`` after ``frames`` screenshots
        of noise: where the frame after them begins."""
        ref = np.random.default_rng(seed)
        for _ in range(frames):
            ref.normal(0.0, SCALE, size=(640, 360, 3))
        return ref.bit_generator.state

    @staticmethod
    def _before_blocks_of(monkeypatch, start, before_block):
        """Call ``before_block(k)`` on the helper, in this process, before
        it draws block ``k`` of the queued frame that begins at generator
        state ``start``; return the list of rows the rendering thread
        draws, one entry per call."""
        main, pid = threading.current_thread(), os.getpid()
        main_rows = []
        real = renderer.draw_noise

        def spy(rng, out, *args):
            if threading.current_thread() is main:
                main_rows.append(len(out))
            elif os.getpid() == pid:
                for stream in list(renderer._helper._streams.values()):
                    for frame in list(stream.frames):
                        if (frame.noise is out.base
                                and renderer._same_state(frame.start, start)):
                            before_block(frame.drawn // NOISE_ROWS)
            real(rng, out, *args)

        monkeypatch.setattr(renderer, "draw_noise", spy)
        return main_rows

    def test_a_complete_head_is_taken_while_the_next_frame_draws(
            self, corpus, monkeypatch):
        # Two renders queue frames 3 and 4; the helper is held in its
        # first block of frame 4.
        taken = self._record_claims(monkeypatch)
        started, release = threading.Event(), threading.Event()

        def hold(block):
            started.set()
            assert release.wait(timeout=60)

        self._before_blocks_of(monkeypatch, self._frame_start(15, 3), hold)
        helper = renderer._helper
        wm = _window_manager(corpus.samples[4].screen, overlays=1)
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=rng)
                _reference(wm, ref_rng)
            assert started.wait(timeout=60)
            head, following = _frames(rng)
            assert head.end is not None and following.end is None
            got = render_screen(wm, noise_rng=rng).pixels
            # Taken without stopping the helper, still in its block; the
            # stream is topped up behind the frame it draws.
            assert helper._drawing is following
            assert _frames(rng)[0] is following
            assert len(_frames(rng)) == 2
        finally:
            release.set()
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert taken == [False, False, True, True]
        assert _same_generator(rng, ref_rng)

    def test_a_take_over_of_an_incomplete_head_keeps_the_next_frame(
            self, corpus, monkeypatch):
        # The helper draws two blocks of frame 3, then is held before its
        # third until the third render takes the frame over: it draws
        # three blocks, the rendering thread the rest, and frame 4
        # behind it stays queued, starting where the clone stands.  The
        # helper may go on with frame 4 before frame 3 is applied.
        helper = renderer._helper
        release, second = threading.Event(), threading.Event()
        real_raster, real_apply = renderer._rasterise, renderer.apply_noise
        at_apply = []

        def hold(block):
            if block == 1:  # until the third render has rasterised
                assert release.wait(timeout=60)
            elif block == 2:  # until that render takes the frame over
                second.set()
                stream = helper._streams[id(rng)]
                deadline = time.monotonic() + 60
                while not stream.held:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)

        def raster(wm, canvas):
            real_raster(wm, canvas)
            release.set()
            assert second.wait(timeout=60)

        def apply(pixels, noise):
            stream = helper._streams[id(rng)]
            at_apply.append((stream.held, list(stream.frames)))
            real_apply(pixels, noise)

        main_rows = self._before_blocks_of(
            monkeypatch, self._frame_start(17, 2), hold)
        wm = _window_manager(corpus.samples[5].screen)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        head, following = _frames(rng)
        del main_rows[:]
        monkeypatch.setattr(renderer, "_rasterise", raster)
        monkeypatch.setattr(renderer, "apply_noise", apply)
        got = render_screen(wm, noise_rng=rng).pixels
        assert head.drawn == wm.screen.height and head.dropped
        assert main_rows == [wm.screen.height - 3 * NOISE_ROWS]
        # At the add, the helper was free to draw frame 4 already.
        assert at_apply == [(False, [head, following])]
        assert renderer._same_state(following.start, head.end)
        assert _frames(rng)[0] is following
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The frame kept starts at the committed state.
        assert renderer._same_state(following.start, rng.bit_generator.state)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_a_head_half_drawn_is_waited_for(self, corpus, monkeypatch):
        # The helper is held with half of frame 3 drawn until the third
        # render has rasterised: that render waits for the rest instead
        # of stopping the helper, and frame 4 stays queued.
        started, release = threading.Event(), threading.Event()
        real_raster = renderer._rasterise
        wm = _window_manager(corpus.samples[13].screen)
        rows = wm.screen.height
        assert (rows // 2) % NOISE_ROWS == 0

        def hold(block):
            if block == rows // 2 // NOISE_ROWS:
                started.set()
                assert release.wait(timeout=60)

        def raster(wm, canvas):
            real_raster(wm, canvas)
            release.set()

        main_rows = self._before_blocks_of(
            monkeypatch, self._frame_start(18, 2), hold)
        rng, ref_rng = np.random.default_rng(18), np.random.default_rng(18)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert started.wait(timeout=60)
        head, following = _frames(rng)
        assert head.drawn == rows // 2
        del main_rows[:]
        monkeypatch.setattr(renderer, "_rasterise", raster)
        got = render_screen(wm, noise_rng=rng).pixels
        # Not taken over: the rendering thread drew nothing.
        assert main_rows == [] and head.drawn == rows
        assert _frames(rng)[0] is following
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        monkeypatch.undo()
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.Philox,
        np.random.SFC64])
    def test_a_draw_between_renders_discards_both_frames(
            self, corpus, monkeypatch, bit_generator):
        taken = self._record_claims(monkeypatch)
        wm = _window_manager(corpus.samples[10].screen, overlays=1)
        rng = np.random.Generator(bit_generator(31))
        ref_rng = np.random.Generator(bit_generator(31))
        for step in range(5):
            if step == 2:
                queued = _frames(rng)
                assert len(queued) == 2
                assert rng.normal(size=5).tolist() == \
                    ref_rng.normal(size=5).tolist()
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
            assert renderer._same_state(rng.bit_generator.state,
                                        ref_rng.bit_generator.state)
            if step == 2:
                assert not any(frame is old for frame in _frames(rng)
                               for old in queued)
        assert taken == [False, False, False, True, True]
        assert rng.normal() == ref_rng.normal()

    def test_an_error_in_the_second_frame_surfaces_from_its_render(
            self, corpus, monkeypatch):
        # Two renders queue frames 3 and 4; the helper's draw of frame 4
        # fails.  The render that takes frame 3 does not see it; the one
        # that takes frame 4 raises it.
        failed = threading.Event()
        real_draw = renderer.draw_noise

        def fail(block):
            failed.set()
            raise RuntimeError("second frame failed")

        self._before_blocks_of(monkeypatch, self._frame_start(16, 3), fail)
        wm = _window_manager(corpus.samples[11].screen)
        rng, ref_rng = np.random.default_rng(16), np.random.default_rng(16)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert failed.wait(timeout=60)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        before = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="second frame failed"):
            render_screen(wm, noise_rng=rng)
        assert rng.bit_generator.state == before
        assert _nothing_queued()
        monkeypatch.setattr(renderer, "draw_noise", real_draw)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_render_state_starts_no_look_ahead(self, corpus):
        state = corpus.samples[7].screen
        for seed in (0, 1, 0, 2):
            render_state(state, noise_seed=seed)
            assert _nothing_queued()

    def test_raster_error_after_a_look_ahead(self, corpus, monkeypatch):
        wm = _window_manager(corpus.samples[8].screen)
        rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert _frames(rng)
        real_tree = renderer.render_view_tree

        def broken(canvas, root, offset):
            raise RuntimeError("raster failed")

        monkeypatch.setattr(renderer, "render_view_tree", broken)
        with pytest.raises(RuntimeError, match="raster failed"):
            render_screen(wm, noise_rng=rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert _nothing_queued()
        monkeypatch.setattr(renderer, "render_view_tree", real_tree)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)


class TestStreams:
    """Several generators at once: one stream each, three shared frame
    buffers."""

    @pytest.mark.parametrize("schedule", ["round_robin", "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaved_generators_match_the_reference(
            self, corpus, monkeypatch, schedule, seed):
        # Four or five device generators of three bit-generator kinds
        # render in turn, with draws between renders, rasters that raise
        # and one-shot generators mixed in; pixels and every generator's
        # state must match the sequential order after every render.
        taken = TestLookAhead._record_claims(monkeypatch)
        fail = [False]
        real_tree = renderer.render_view_tree

        def tree(canvas, root, offset):
            if fail[0]:
                raise RuntimeError("raster failed")
            real_tree(canvas, root, offset)

        monkeypatch.setattr(renderer, "render_view_tree", tree)
        plan = np.random.default_rng(1000 + seed)
        kinds = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                 np.random.PCG64, np.random.PCG64][:4 + seed]
        pairs = [(np.random.Generator(kind(50 + k)),
                  np.random.Generator(kind(50 + k)))
                 for k, kind in enumerate(kinds)]
        states = _states(corpus)
        wms = [_window_manager(states[k % len(states)], overlays=k % 2)
               for k in range(len(states))]
        for step in range(60):
            k = (step % len(pairs) if schedule == "round_robin"
                 else int(plan.integers(len(pairs))))
            rng, ref_rng = pairs[k]
            wm = wms[int(plan.integers(len(wms)))]
            event = plan.random()
            if event < 0.1:  # a draw between renders
                assert rng.normal(size=3).tolist() == \
                    ref_rng.normal(size=3).tolist()
            elif event < 0.15:  # a raster that raises
                fail[0] = True
                try:
                    with pytest.raises(RuntimeError, match="raster failed"):
                        render_screen(wm, noise_rng=rng)
                finally:
                    fail[0] = False
            elif event < 0.25:  # a one-shot generator
                one_shot = int(plan.integers(1 << 30))
                got = render_screen(
                    wm, noise_rng=np.random.default_rng(one_shot)).pixels
                want = _reference(wm, np.random.default_rng(one_shot))
                assert np.array_equal(_bits(got), _bits(want)), step
            else:
                got = render_screen(wm, noise_rng=rng).pixels
                want = _reference(wm, ref_rng)
                assert np.array_equal(_bits(got), _bits(want)), step
            for g, ref in pairs:
                assert renderer._same_state(g.bit_generator.state,
                                            ref.bit_generator.state), step
        assert any(taken)
        for g, ref in pairs:
            assert g.normal() == ref.normal()
        helper = renderer._helper
        assert len(helper._buffers) <= renderer._LookAhead.BUFFERS
        assert sum(len(s.frames) for s in helper._streams.values()) <= \
            renderer._LookAhead.BUFFERS

    def test_a_frame_dropped_mid_block_is_never_completed(self, corpus,
                                                          monkeypatch):
        # The helper is held inside a block of a look-ahead frame; a draw
        # between renders makes the next render drop that frame.  The
        # drop waits for the block, the helper leaves the frame as it
        # was, and the buffer is reused without a deadlock.
        helper = renderer._helper
        real = renderer.draw_noise
        main, pid = threading.current_thread(), os.getpid()
        in_block, release = threading.Event(), threading.Event()
        held = []

        def spy(rng, out, *args):
            if (threading.current_thread() is not main and os.getpid() == pid
                    and not held and not any(
                        s.claimed for s in helper._streams.values())):
                held.append(out.base)
                in_block.set()
                assert release.wait(timeout=60)
            real(rng, out, *args)

        monkeypatch.setattr(renderer, "draw_noise", spy)
        wm = _window_manager(corpus.samples[6].screen, overlays=1)
        rng, ref_rng = np.random.default_rng(61), np.random.default_rng(61)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert in_block.wait(timeout=60)
        frame = next(f for f in _frames(rng) if f.noise is held[0])
        drawn = frame.drawn

        def release_once_dropped():
            deadline = time.monotonic() + 60
            while not frame.dropped and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()

        releaser = threading.Thread(target=release_once_dropped)
        releaser.start()
        try:
            assert rng.normal(size=4).tolist() == \
                ref_rng.normal(size=4).tolist()
            got = render_screen(wm, noise_rng=rng).pixels
        finally:
            release.set()
            releaser.join(timeout=60)
        assert frame.dropped and helper._drawing is not frame
        assert frame.end is None and frame.drawn == drawn
        assert all(f is not frame for f in _frames(rng))
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        for _ in range(2):
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_sequential_devices_keep_two_frames_ahead(self, corpus,
                                                      monkeypatch):
        # A device's session ends with two frames queued; the next
        # device's second frame reclaims a buffer from it (it has not
        # rendered since the new device's previous render), so the new
        # device runs two frames ahead too.
        taken = TestLookAhead._record_claims(monkeypatch)
        wm = _window_manager(corpus.samples[7].screen)
        first, ref_first = np.random.default_rng(70), np.random.default_rng(70)
        second = np.random.default_rng(71)
        ref_second = np.random.default_rng(71)
        for _ in range(4):
            render_screen(wm, noise_rng=first)
            _reference(wm, ref_first)
        assert len(_frames(first)) == 2
        for k in range(4):
            got = render_screen(wm, noise_rng=second).pixels
            assert np.array_equal(_bits(got),
                                  _bits(_reference(wm, ref_second))), k
            if k >= 1:
                assert len(_frames(second)) == 2, k
        assert taken == [False, False, True, True] * 2
        assert len(_frames(first)) <= 1
        # The first device's frame left, if any, is still its next one.
        got = render_screen(wm, noise_rng=first).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_first)))
        assert _same_generator(first, ref_first)
        assert _same_generator(second, ref_second)

    def test_three_generators_in_turn_keep_a_frame_each(self, corpus,
                                                        monkeypatch):
        # Round-robin, as three lockstep sessions render: a second frame
        # may not reclaim a buffer from a generator that rendered since
        # its own previous render, so each keeps one frame ahead and,
        # from the third round on, every render takes one.
        taken = TestLookAhead._record_claims(monkeypatch)
        wms = [_window_manager(s) for s in _states(corpus)[:3]]
        rngs = [np.random.default_rng(80 + k) for k in range(3)]
        refs = [np.random.default_rng(80 + k) for k in range(3)]
        for _ in range(5):
            for wm, rng, ref in zip(wms, rngs, refs):
                got = render_screen(wm, noise_rng=rng).pixels
                assert np.array_equal(_bits(got), _bits(_reference(wm, ref)))
        assert taken == [False] * 6 + [True] * 9
        assert [len(_frames(rng)) for rng in rngs] == [1, 1, 1]
        for rng, ref in zip(rngs, refs):
            assert _same_generator(rng, ref)

    def test_a_one_shot_generator_never_queues_a_frame(self, corpus,
                                                       monkeypatch):
        # Corpus renders build one generator per screen: each gets the
        # current frame its render claims, never a look-ahead, and its
        # record never holds a frame after the render.
        pushed = []
        real_push = renderer._LookAhead._push

        def push(self, stream, noise, start, scale):
            pushed.append(stream.claimed)
            real_push(self, stream, noise, start, scale)

        monkeypatch.setattr(renderer._LookAhead, "_push", push)
        state = corpus.samples[7].screen
        for seed in (0, 1, 0, 2, 3):
            render_state(state, noise_seed=seed)
            assert _nothing_queued()
        assert pushed == [True] * 5


# -- fork safety -------------------------------------------------------------

#: Set in the parent before forking; a forked child inherits it.
_FORK_CASE = {}


def _child_render():
    # Nothing is queued in the child whatever the parent's helper was
    # doing at the fork; the child's renders (the third one taking the
    # child's own look-ahead) match the parent's.
    nothing_queued = _nothing_queued()
    wm, seed = _FORK_CASE["wm"], _FORK_CASE["seed"]
    rng = np.random.default_rng(seed)
    frames = [render_screen(wm, noise_rng=rng).pixels.tobytes()
              for _ in range(3)]
    return frames, nothing_queued


def _fork_and_render(wm, seed):
    """Render three frames from ``seed`` in a fork child (what
    ``repro.bench.parallel._pool_context`` uses)."""
    _FORK_CASE.update(wm=wm, seed=seed)
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            return pool.apply_async(_child_render).get(timeout=120)
    finally:
        _FORK_CASE.clear()


def _reference_frames(wm, seed, n=3):
    ref_rng = np.random.default_rng(seed)
    return [_reference(wm, ref_rng).tobytes() for _ in range(n)]


class TestForkSafety:
    def test_fork_child_renders_the_parents_bytes(self, corpus):
        wm = _window_manager(corpus.samples[2].screen, overlays=1)
        # A stream owned at fork time (another thread mid-render) must
        # not stay owned in the child.
        with _HoldStream(np.random.default_rng(21)):
            frames, nothing_queued = _fork_and_render(wm, 21)
        assert frames == _reference_frames(wm, 21)
        assert nothing_queued

    def test_fork_while_a_look_ahead_is_pending(self, corpus, monkeypatch):
        started, release = TestLookAhead._hold_look_ahead(monkeypatch)
        wm = _window_manager(corpus.samples[3].screen)
        rng = np.random.default_rng(22)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=rng)
            assert started.wait(timeout=60)
            assert _frames(rng)
            frames, nothing_queued = _fork_and_render(wm, 22)
        finally:
            release.set()
        want = _reference_frames(wm, 22)
        assert frames == want
        assert nothing_queued
        # The parent's look-ahead survives the fork.
        assert render_screen(wm, noise_rng=rng).pixels.tobytes() == want[2]

    def test_fork_while_the_second_frame_draws(self, corpus, monkeypatch):
        # Two renders queue frames 3 and 4; the helper is held in its
        # first block of frame 4.
        started, release = threading.Event(), threading.Event()

        def hold(block):
            started.set()
            assert release.wait(timeout=60)

        TestLookAhead._before_blocks_of(
            monkeypatch, TestLookAhead._frame_start(23, 3), hold)
        wm = _window_manager(corpus.samples[12].screen, overlays=1)
        rng = np.random.default_rng(23)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=rng)
            assert started.wait(timeout=60)
            assert renderer._helper._drawing
            frames, nothing_queued = _fork_and_render(wm, 23)
        finally:
            release.set()
        want = _reference_frames(wm, 23, n=4)
        assert frames == want[:3]
        assert nothing_queued
        # The parent's queue survives the fork: both frames are taken.
        for k in (2, 3):
            assert render_screen(wm, noise_rng=rng).pixels.tobytes() == \
                want[k]
