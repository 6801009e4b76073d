"""Sensor noise drawn on the helper thread: up to two frames ahead of a
generator's screenshots, or while the window stack rasterises.

``render_screen`` must give the same pixels, and leave the noise
generator in the same state, as rasterising first and then adding the
full-frame noise (the reference below, the formula
``tests/imaging/test_canvas.py`` keeps).  These tests cover corpus
screens (windowed, full-screen, with overlays), the hand-over of the
rows the helper has not reached, the two-frame look-ahead queue (a
complete head taken while the helper draws the next frame, an
incomplete head taken over and the queue dropped, frames discarded by a
draw between renders, never seen from outside a render, never started
for one-shot generators), the idle-core check, the inline path a render
takes when no core is idle or another render owns the queue, the error
paths, stub screenshots, and fork children of a process that has
rendered.
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


def _slot_is_free():
    """No render owns the helper's queue and no frame is queued."""
    helper = renderer._helper
    with helper._cond:
        return not (helper._claimed or helper._queue)


class _HoldSlot:
    """Mark the helper's draw as owned by a render, as another thread
    mid-render would."""

    def __enter__(self):
        helper = renderer._helper
        with helper._cond:
            assert not helper._claimed
            helper._claimed = True

    def __exit__(self, *exc):
        helper = renderer._helper
        with helper._cond:
            helper._claimed = False


#: The real idle-core check; the fixture below stands it in for the
#: tests that need the helper whatever else the test process runs (a
#: BLAS worker still spinning after an earlier test's GEMM, say).
_REAL_CORE_IDLE = renderer._core_idle


@pytest.fixture(autouse=True)
def idle_core(monkeypatch):
    monkeypatch.setattr(renderer, "_core_idle", lambda: True)
    # A look-ahead left by an earlier test would still be drawing
    # through the names a test is about to patch.
    renderer._helper.drop()


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
        assert _slot_is_free()

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
        assert _slot_is_free()

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
        assert _slot_is_free()

    def test_helpers_reuse_one_frame_buffer(self, corpus):
        # The queue's frames, one per look-ahead depth, and the block
        # buffer are allocated once per frame shape.
        wm = _window_manager(corpus.samples[0].screen)
        render_screen(wm, noise_rng=np.random.default_rng(1))
        frames = list(renderer._helper._buffers)
        scratch = renderer._helper._scratch
        assert len(frames) == renderer._LookAhead.DEPTH == 2
        assert all(f.shape == (640, 360, 3) and f.dtype == np.float32
                   for f in frames)
        assert scratch.shape == (NOISE_ROWS, 360, 3)
        rng = np.random.default_rng(2)
        for _ in range(4):  # frames taken from the look-ahead too
            render_screen(_window_manager(corpus.samples[1].screen),
                          noise_rng=rng)
        assert all(a is b for a, b in zip(renderer._helper._buffers, frames))
        assert renderer._helper._scratch is scratch
        small = WindowManager(Screen(width=100, height=200))
        small.attach_app_window(View(bounds=Rect(0, 0, 100, 128),
                                     bg_color=PALETTE["white"]), "com.demo")
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = render_screen(small, noise_rng=rng).pixels
        assert [f.shape for f in renderer._helper._buffers] == \
            [(200, 100, 3)] * 2
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


class TestIdleCoreCheck:
    def test_calling_thread_fills_a_single_cpu(self, monkeypatch):
        monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        assert _REAL_CORE_IDLE() is False
        monkeypatch.setattr(renderer.os, "sched_getaffinity",
                            lambda pid: set(range(4096)))
        assert _REAL_CORE_IDLE() is True

    def test_running_and_sleeping_threads(self):
        assert renderer._thread_running(str(threading.get_native_id()))
        release = threading.Event()
        sleeper = threading.Thread(target=release.wait, args=(60,))
        sleeper.start()
        try:
            tid = str(sleeper.native_id)
            for _ in range(1000):
                if not renderer._thread_running(tid):
                    break
                release.wait(0.01)
            assert not renderer._thread_running(tid)
        finally:
            release.set()
            sleeper.join(timeout=60)
        assert not sleeper.is_alive()
        # A thread that has exited is not running.  join() returns before
        # the thread's exit path has run, so wait until the kernel has
        # dropped the task.
        for _ in range(1000):
            if not os.path.exists(f"/proc/self/task/{tid}"):
                break
            time.sleep(0.01)
        assert not renderer._thread_running(tid)

    def test_without_cpu_affinity_no_core_is_idle(self, monkeypatch):
        monkeypatch.delattr(renderer.os, "sched_getaffinity")
        assert _REAL_CORE_IDLE() is False

    def test_no_idle_core_draws_inline(self, corpus, monkeypatch):
        monkeypatch.setattr(renderer, "_core_idle", lambda: False)
        threads = _record_draw_threads(monkeypatch)
        wm = _window_manager(corpus.samples[1].screen)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = render_screen(wm, noise_rng=rng).pixels
        assert threads == {threading.current_thread()}
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)
        assert _slot_is_free()


class TestBusyHelperDrawsInline:
    def test_taken_slot_draws_on_the_rendering_thread(self, corpus,
                                                      monkeypatch):
        threads = _record_draw_threads(monkeypatch)
        wm = _window_manager(corpus.samples[1].screen, overlays=1)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        with _HoldSlot():
            got = render_screen(wm, noise_rng=rng).pixels
        assert threads == {threading.current_thread()}
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
        live, peak = [0], [0]
        lock = threading.Lock()
        real = renderer.draw_noise

        def counting(rng, out, *args):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            try:
                real(rng, out, *args)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(renderer, "draw_noise", counting)
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
        # One helper frame at a time, process-wide.
        assert peak[0] == 1
        assert _slot_is_free()


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
        assert _slot_is_free()

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
        assert _slot_is_free()

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
        assert _slot_is_free()
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
            head = self._queue[0] if self._queue else None
            owned = real(self, rng, shape, scale)
            # A queue started for this render would have a new head.
            taken.append(owned and head is not None
                         and self._queue[0] is head)
            return owned

        monkeypatch.setattr(renderer._LookAhead, "claim", claim)
        return taken

    @staticmethod
    def _hold_look_ahead(monkeypatch):
        """Make the helper wait before each block of a draw no render
        has claimed yet (a look-ahead) in this process; return the
        (started, release) events."""
        main, pid = threading.current_thread(), os.getpid()
        started, release = threading.Event(), threading.Event()
        real = renderer.draw_noise

        def held(rng, out, *args):
            if (threading.current_thread() is not main
                    and os.getpid() == pid and not renderer._helper._claimed):
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
                assert renderer._helper._queue
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
            assert renderer._helper._queue
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
                for frame in list(renderer._helper._queue):
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
            head, following = helper._queue
            assert head.end is not None and following.end is None
            got = render_screen(wm, noise_rng=rng).pixels
            # Taken without stopping the helper, still in its block; the
            # queue is topped up behind the frame it draws.
            assert helper._drawing and not helper._stop
            assert helper._queue[0] is following
            assert len(helper._queue) == 2
        finally:
            release.set()
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert taken == [False, False, True, True]
        assert _same_generator(rng, ref_rng)

    def test_a_take_over_of_an_incomplete_head_drops_the_queue(
            self, corpus, monkeypatch):
        # The helper draws two blocks of frame 3, then is held before its
        # third until the third render stops it: it draws three blocks,
        # the rendering thread the rest, and frame 4 behind it is never
        # started.  The look-ahead starts over before frame 3 is applied.
        helper = renderer._helper
        release, second, halting = (threading.Event(), threading.Event(),
                                    threading.Event())
        real_raster = renderer._rasterise
        real_halt, real_apply = renderer._LookAhead._halt, renderer.apply_noise
        restarted = []

        def hold(block):
            if block == 1:  # until the third render has rasterised
                assert release.wait(timeout=60)
            elif block == 2:  # until that render stops the helper
                second.set()
                assert halting.wait(timeout=60)

        def raster(wm, canvas):
            real_raster(wm, canvas)
            release.set()
            assert second.wait(timeout=60)

        def halt(self):
            halting.set()
            real_halt(self)

        def apply(pixels, noise):
            queue = helper._queue
            restarted.append(len(queue) == 2 and queue[1] is not following
                             and not helper._stop)
            real_apply(pixels, noise)

        main_rows = self._before_blocks_of(
            monkeypatch, self._frame_start(17, 2), hold)
        wm = _window_manager(corpus.samples[5].screen)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        head, following = helper._queue
        del main_rows[:]
        monkeypatch.setattr(renderer, "_rasterise", raster)
        monkeypatch.setattr(renderer._LookAhead, "_halt", halt)
        monkeypatch.setattr(renderer, "apply_noise", apply)
        got = render_screen(wm, noise_rng=rng).pixels
        assert head.drawn == 3 * NOISE_ROWS
        assert main_rows == [wm.screen.height - 3 * NOISE_ROWS]
        assert following.drawn == 0 and following.end is None
        assert all(frame is not head and frame is not following
                   for frame in helper._queue)
        assert restarted == [True]
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The new look-ahead starts at the committed state.
        assert renderer._same_state(helper._queue[0].start,
                                    rng.bit_generator.state)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_a_head_half_drawn_is_waited_for(self, corpus, monkeypatch):
        # The helper is held with half of frame 3 drawn until the third
        # render has rasterised: that render waits for the rest instead
        # of stopping the helper, and frame 4 stays queued.
        helper = renderer._helper
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

        def halt(self):
            raise AssertionError("a half-drawn head was taken over")

        main_rows = self._before_blocks_of(
            monkeypatch, self._frame_start(18, 2), hold)
        rng, ref_rng = np.random.default_rng(18), np.random.default_rng(18)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert started.wait(timeout=60)
        head, following = helper._queue
        assert head.drawn == rows // 2
        del main_rows[:]
        monkeypatch.setattr(renderer, "_rasterise", raster)
        monkeypatch.setattr(renderer._LookAhead, "_halt", halt)
        got = render_screen(wm, noise_rng=rng).pixels
        assert main_rows == [] and head.drawn == rows
        assert helper._queue[0] is following
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
        helper = renderer._helper
        wm = _window_manager(corpus.samples[10].screen, overlays=1)
        rng = np.random.Generator(bit_generator(31))
        ref_rng = np.random.Generator(bit_generator(31))
        for step in range(5):
            if step == 2:
                queued = list(helper._queue)
                assert len(queued) == 2
                assert rng.normal(size=5).tolist() == \
                    ref_rng.normal(size=5).tolist()
            got = render_screen(wm, noise_rng=rng).pixels
            assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
            assert renderer._same_state(rng.bit_generator.state,
                                        ref_rng.bit_generator.state)
            if step == 2:
                assert not any(frame is old for frame in helper._queue
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
        assert _slot_is_free()
        monkeypatch.setattr(renderer, "draw_noise", real_draw)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)

    def test_render_state_starts_no_look_ahead(self, corpus):
        state = corpus.samples[7].screen
        for seed in (0, 1, 0, 2):
            render_state(state, noise_seed=seed)
            assert _slot_is_free()

    def test_raster_error_after_a_look_ahead(self, corpus, monkeypatch):
        wm = _window_manager(corpus.samples[8].screen)
        rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
        for _ in range(2):
            render_screen(wm, noise_rng=rng)
            _reference(wm, ref_rng)
        assert renderer._helper._queue
        real_tree = renderer.render_view_tree

        def broken(canvas, root, offset):
            raise RuntimeError("raster failed")

        monkeypatch.setattr(renderer, "render_view_tree", broken)
        with pytest.raises(RuntimeError, match="raster failed"):
            render_screen(wm, noise_rng=rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert _slot_is_free()
        monkeypatch.setattr(renderer, "render_view_tree", real_tree)
        got = render_screen(wm, noise_rng=rng).pixels
        assert np.array_equal(_bits(got), _bits(_reference(wm, ref_rng)))
        assert _same_generator(rng, ref_rng)


# -- fork safety -------------------------------------------------------------

#: Set in the parent before forking; a forked child inherits it.
_FORK_CASE = {}


def _child_render():
    # The slot is free in the child whatever the parent's helper was
    # doing at the fork; the child's renders (the third one taking the
    # child's own look-ahead) match the parent's.
    slot_free = _slot_is_free()
    wm, seed = _FORK_CASE["wm"], _FORK_CASE["seed"]
    rng = np.random.default_rng(seed)
    frames = [render_screen(wm, noise_rng=rng).pixels.tobytes()
              for _ in range(3)]
    return frames, slot_free


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
        # A slot held at fork time (another thread mid-render) must not
        # stay taken in the child.
        with _HoldSlot():
            frames, slot_free = _fork_and_render(wm, 21)
        assert frames == _reference_frames(wm, 21)
        assert slot_free

    def test_fork_while_a_look_ahead_is_pending(self, corpus, monkeypatch):
        started, release = TestLookAhead._hold_look_ahead(monkeypatch)
        wm = _window_manager(corpus.samples[3].screen)
        rng = np.random.default_rng(22)
        try:
            for _ in range(2):
                render_screen(wm, noise_rng=rng)
            assert started.wait(timeout=60)
            assert renderer._helper._queue
            frames, slot_free = _fork_and_render(wm, 22)
        finally:
            release.set()
        want = _reference_frames(wm, 22)
        assert frames == want
        assert slot_free
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
            frames, slot_free = _fork_and_render(wm, 23)
        finally:
            release.set()
        want = _reference_frames(wm, 23, n=4)
        assert frames == want[:3]
        assert slot_free
        # The parent's queue survives the fork: both frames are taken.
        for k in (2, 3):
            assert render_screen(wm, noise_rng=rng).pixels.tobytes() == \
                want[k]
