"""Rasterizing window stacks into screenshots.

``AccessibilityService.take_screenshot`` ultimately calls
:func:`render_screen`, which composites the window stack bottom-to-top
onto a :class:`~repro.imaging.canvas.Canvas`, then draws the system bars
when the foreground app is not full-screen.  Ground-truth images for the
dataset generator come through the same code path, so the detector never
sees a rendering style it wasn't trained on.

Sensor noise is the costliest part of a screenshot (691,200 Gaussian
draws per 640x360 frame), and it depends on nothing but the noise
generator's state, so :func:`render_screen` takes it from a helper
thread when a core is idle: drawn up to two frames ahead, from the
generator's previous screenshot on, or while the calling thread
rasterises (``Generator.standard_normal`` releases the GIL).  Pixels and
the generator's state are bit-identical to rasterising first and
calling ``Canvas.add_noise`` after.
"""

from __future__ import annotations

import copy
import os
import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.rect import Offset, Rect
from repro.imaging.canvas import NOISE_ROWS, Canvas, apply_noise, draw_noise
from repro.imaging.color import Color, PALETTE
from repro.imaging.text import draw_pseudo_text, pseudo_text_width
from repro.android.view import Shape, View, Visibility
from repro.android.window import Screen, Window, WindowManager, WindowType

_STATUS_BAR_COLOR = Color.from_hex("#1a1a1a")
_NAV_BAR_COLOR = Color.from_hex("#101010")
_WALLPAPER = Color.from_hex("#202028")


def _draw_view(canvas: Canvas, view: View, offset: Offset) -> None:
    """Draw one view (not its children) at its screen position."""
    rect = view.bounds.offset_by(offset)
    if view.bg_color is not None:
        if view.shape is Shape.CIRCLE:
            cx, cy = rect.center
            canvas.fill_circle(cx, cy, min(rect.w, rect.h) / 2.0,
                               view.bg_color, alpha=view.bg_alpha)
        elif view.shape is Shape.ROUNDED:
            canvas.fill_rounded_rect(rect, view.bg_color, view.corner_radius,
                                     alpha=view.bg_alpha)
        else:
            canvas.fill_rect(rect, view.bg_color, alpha=view.bg_alpha)
    if view.border_color is not None and view.border_width > 0:
        canvas.stroke_rect(rect, view.border_color,
                           thickness=view.border_width, alpha=view.bg_alpha)
    if view.icon is not None and view.icon_color is not None:
        cx, cy = rect.center
        size = min(rect.w, rect.h) * 0.6
        if view.icon == "cross":
            canvas.draw_cross(cx, cy, size, view.icon_color,
                              thickness=max(1, int(size / 8)),
                              alpha=view.icon_alpha)
        elif view.icon == "circle":
            canvas.fill_circle(cx, cy, size / 2.0, view.icon_color,
                               alpha=view.icon_alpha)
        elif view.icon == "bar":
            canvas.fill_rect(Rect.from_center(cx, cy, size, size / 4.0),
                             view.icon_color, alpha=view.icon_alpha)
    if view.text and view.text_color is not None:
        size = view.text_size
        text_w = pseudo_text_width(view.text, size)
        # Auto-fit: shrink oversize text so the ink stays inside the
        # view, as Android's ellipsizing keeps labels inside buttons.
        if text_w > rect.w * 0.96 and text_w > 0:
            size = max(3.0, size * rect.w * 0.96 / text_w)
            text_w = pseudo_text_width(view.text, size)
        tx = rect.center[0] - text_w / 2.0
        ty = rect.center[1] - size / 2.0
        draw_pseudo_text(canvas, view.text, tx, ty, size,
                         view.text_color, alpha=view.text_alpha)


def render_view_tree(canvas: Canvas, root: View, offset: Offset) -> None:
    """Pre-order draw of a view subtree (parents under children)."""
    if root.visibility is not Visibility.VISIBLE:
        return
    _draw_view(canvas, root, offset)
    for child in root.children:
        render_view_tree(canvas, child, offset)


def render_window(window: Window, screen: Screen) -> Canvas:
    """Rasterize a single window against a blank screen."""
    canvas = Canvas(screen.width, screen.height, background=_WALLPAPER)
    render_view_tree(canvas, window.root, window.offset)
    return canvas


def _core_idle() -> bool:
    """Whether fewer of this process's threads run than it has CPUs.

    A thread counts as running when ``/proc/self/task/<tid>/stat`` shows
    state ``R``; the calling thread always does.  An OpenBLAS worker
    spinning after a GEMM counts too: a helper beside it would make
    three threads share two cores and slow the raster down more than
    the overlap saves.  Without ``/proc`` or CPU affinity (not Linux),
    no core counts as idle.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
        running = sum(_thread_running(tid)
                      for tid in os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return False
    return running < cpus


def _thread_running(tid: str) -> bool:
    try:
        with open(f"/proc/self/task/{tid}/stat", "rb") as stat_file:
            stat = stat_file.read()
    except OSError:  # the thread exited after the listing
        return False
    # The state letter follows the parenthesised thread name.
    return stat[stat.rindex(b")") + 2:][:1] == b"R"


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values.  PCG64's state is
    plain integers, but MT19937, Philox and SFC64 keep arrays in theirs,
    and ``==`` on arrays compares elementwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _Frame:
    """One frame of noise in the helper's queue."""

    __slots__ = ("noise", "start", "end", "drawn", "error")

    def __init__(self, noise: np.ndarray, start: Optional[dict]) -> None:
        self.noise = noise
        # The generator's state where the frame begins: the caller's for
        # the first frame, the end of the frame before it otherwise (None
        # until that one is complete).
        self.start = start
        self.end: Optional[dict] = None  # the clone's state once complete
        self.drawn = 0                   # rows the helper has drawn
        self.error: Optional[BaseException] = None  # raised by its draw


class _LookAhead:
    """The process's one noise helper: a thread, two frames and a queue.

    The queue holds up to two frames of one noise generator's stream in
    order.  The helper draws them one after the other, in whole
    ``NOISE_ROWS`` blocks and in row order, from one private clone of the
    generator (its ``bit_generator.state`` copied when the queue starts),
    so the source generator is never touched until a render commits a
    frame.  Each frame records its start state and, once complete, a
    snapshot of its end state.

    :meth:`claim` gives a render the queue's head frame when the
    generator's state still equals the frame's start state, with the same
    frame shape and scale (a look-ahead); any mismatch discards the whole
    queue.  Otherwise, when a core is idle (:func:`_core_idle`), it
    starts a queue of the current frame alone for the helper to draw
    while the caller rasterises.  :meth:`finish` then applies the head.
    A complete head, or one the helper has drawn at least half of (it
    waits for the rest), is added and clipped in place while the helper
    goes on with the next frame, and its end state is copied into the
    generator.  A head less than half drawn (a helper that started late
    or is held up) stops the helper after its block, the rows it did not
    reach are drawn here from the clone, and the queue is dropped; for a
    generator that fed the render before, the look-ahead starts over from
    the clone before the head is applied.  So outside a render the
    generator is always in its sequential state, and throwing frames
    away (:meth:`drop`, or a :meth:`claim` for another state) is always
    safe.

    :meth:`look_ahead` tops the queue up to two frames as soon as a
    render has applied its noise, but only for a generator that fed the
    render before too (a device's, whose screenshots follow one another;
    not the one-shot generators of ``datagen.corpus.render_state``).  The
    object holds one caller generator (the last render's); the two
    float32 frames and the float64 block buffer are allocated once per
    frame shape.  A render that finds the queue owned by another render
    (daemon session threads) draws inline with ``Canvas.add_noise``,
    which calls the same :func:`draw_noise`.
    """

    #: Frames the helper draws ahead of a generator's renders.
    DEPTH = 2

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        # Guarded by _cond.
        self._claimed = False  # a render owns the queue's head
        self._queue: List[_Frame] = []
        self._drawing = False  # the helper is drawing
        self._stop = False     # the helper stops after its block
        self._last: Optional[np.random.Generator] = None
        # Changed only while the queue is empty.
        self._clone: Optional[np.random.Generator] = None
        self._scale = 0.0
        self._buffers: List[np.ndarray] = []  # DEPTH frames of one shape
        self._scratch: Optional[np.ndarray] = None

    def claim(self, rng: np.random.Generator, shape: Tuple[int, ...],
              scale: float) -> bool:
        """Own the head frame of the queue for ``rng``, or ``False``
        (draw inline) if another render owns it or no core is idle."""
        with self._cond:
            if self._claimed:
                return False
            if self._queue:
                if self._continues(rng, shape, scale):
                    self._claimed = True
                    return True
                self._discard()
            if not _core_idle():
                return False
            self._restart(rng, shape, scale)
            self._claimed = True
            return True

    def finish(self, rng: np.random.Generator, pixels: np.ndarray) -> None:
        """Complete the claimed frame, add and clip it into ``pixels``,
        and advance ``rng`` past it."""
        with self._cond:
            head = self._queue[0]
            # A helper past half the frame is keeping up: wait for it,
            # so the stream it draws never stops.
            while (head.end is None and head.error is None
                   and 2 * head.drawn >= len(head.noise)):
                self._cond.wait()
            take_over = head.end is None
            if take_over:
                self._halt()
        taken = False
        try:
            if head.error is not None:
                raise head.error
            if take_over:
                draw_noise(self._clone, head.noise[head.drawn:], self._scale,
                           self._scratch)
                with self._cond:
                    self._restart_after(head, rng)
            apply_noise(pixels, head.noise)
            rng.bit_generator.state = head.end
            taken = True
        finally:
            with self._cond:
                if taken:
                    # The next frame, if any, starts at rng's new state.
                    self._queue.pop(0)
                else:
                    self._discard()
                self._claimed = False

    def drop(self) -> None:
        """Throw the queue away; its generator was never touched."""
        with self._cond:
            self._discard()
            self._claimed = False

    def look_ahead(self, rng: np.random.Generator, shape: Tuple[int, ...],
                   scale: float) -> None:
        """Note that ``rng`` fed a render, and queue its next frames if
        it fed the render before too and the helper is busy with its
        stream already or a core is idle."""
        with self._cond:
            previous, self._last = self._last, rng
            if previous is not rng or self._claimed:
                return
            if self._queue and not self._continues(rng, shape, scale):
                return  # another generator's frames: the next claim decides
            if len(self._queue) >= self.DEPTH:
                return
            busy = any(frame.end is None for frame in self._queue)
            if not (busy or _core_idle()):
                return
            if not self._queue:
                self._restart(rng, shape, scale)
            while len(self._queue) < self.DEPTH:
                self._push(self._queue[-1].end)

    # -- under _cond --------------------------------------------------

    def _continues(self, rng: np.random.Generator, shape: Tuple[int, ...],
                   scale: float) -> bool:
        """Whether the queue's head is ``rng``'s next frame."""
        head = self._queue[0]
        return (head.noise.shape == shape and self._scale == scale
                and _same_state(rng.bit_generator.state, head.start))

    def _restart_after(self, head: _Frame, rng: np.random.Generator) -> None:
        """End a taken-over ``head`` at the clone's state and drop the
        frames behind it (the helper draws in order, so it never started
        them).  For a generator that fed the render before, the
        look-ahead starts over from there at once, before the head is
        applied, so the stream waits neither for the add nor for the
        commit."""
        head.end = self._clone.bit_generator.state
        del self._queue[1:]
        if self._last is rng:
            self._push(head.end)

    def _restart(self, rng: np.random.Generator, shape: Tuple[int, ...],
                 scale: float) -> None:
        """Start an empty queue over with ``rng``'s current frame."""
        if not self._buffers or self._buffers[0].shape != shape:
            self._buffers = [np.empty(shape, dtype=np.float32)
                             for _ in range(self.DEPTH)]
            self._scratch = np.empty((NOISE_ROWS,) + shape[1:])
        if (self._clone is None or type(self._clone.bit_generator)
                is not type(rng.bit_generator)):
            self._clone = copy.deepcopy(rng)
        start = rng.bit_generator.state
        self._clone.bit_generator.state = start
        self._scale = scale
        self._push(start)

    def _push(self, start: Optional[dict]) -> None:
        """Queue a frame into the buffer no queued frame uses."""
        used = [frame.noise for frame in self._queue]
        noise = next(b for b in self._buffers
                     if not any(b is u for u in used))
        self._queue.append(_Frame(noise, start))
        self._stop = False
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="render-noise", daemon=True)
            self._thread.start()
        self._cond.notify_all()

    def _halt(self) -> None:
        """Stop the helper after its block and wait until it has."""
        self._stop = True
        while self._drawing:
            self._cond.wait()

    def _discard(self) -> None:
        self._halt()
        self._queue.clear()

    def _next_frame(self) -> Optional[_Frame]:
        """The frame the helper draws next: the first incomplete one,
        unless the helper is stopped or a draw failed."""
        if self._stop:
            return None
        for frame in self._queue:
            if frame.error is not None:
                return None
            if frame.end is None:
                return frame
        return None

    # -- the helper thread --------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                frame = self._next_frame()
                while frame is None:
                    self._cond.wait()
                    frame = self._next_frame()
                self._drawing = True
            rows = len(frame.noise)
            try:
                for y0 in range(0, rows, NOISE_ROWS):
                    if self._stop:
                        break
                    draw_noise(self._clone, frame.noise[y0:y0 + NOISE_ROWS],
                               self._scale, self._scratch)
                    frame.drawn = min(rows, y0 + NOISE_ROWS)
            except BaseException as exc:  # re-raised by finish()
                frame.error = exc
            with self._cond:
                self._drawing = False
                if frame.error is None and frame.drawn == rows:
                    frame.end = self._clone.bit_generator.state
                    following = self._queue.index(frame) + 1
                    if following < len(self._queue):
                        self._queue[following].start = frame.end
                self._cond.notify_all()


_helper = _LookAhead()


def _reset_after_fork() -> None:
    # A fork child has only the forking thread: the helper thread, and
    # any draw it was making or a render had claimed, stay behind.
    global _helper
    _helper = _LookAhead()


os.register_at_fork(after_in_child=_reset_after_fork)


def _rasterise(wm: WindowManager, canvas: Canvas) -> None:
    """Draw the window stack, then the system bars unless full-screen."""
    screen = wm.screen
    for window in wm.windows:
        render_view_tree(canvas, window.root, window.offset)
    top = wm.top_app_window()
    fullscreen = top.fullscreen if top is not None else False
    if not fullscreen:
        canvas.fill_rect(
            Rect(0, 0, screen.width, screen.status_bar_height),
            _STATUS_BAR_COLOR,
        )
        # Status bar furniture: clock and signal blocks.
        canvas.fill_rect(Rect(8, 8, 30, 8), PALETTE["light_gray"])
        canvas.fill_rect(Rect(screen.width - 40, 8, 32, 8), PALETTE["light_gray"])
        canvas.fill_rect(
            Rect(0, screen.height - screen.nav_bar_height,
                 screen.width, screen.nav_bar_height),
            _NAV_BAR_COLOR,
        )
        # Navigation pills.
        y = screen.height - screen.nav_bar_height / 2.0
        for frac in (0.25, 0.5, 0.75):
            canvas.fill_circle(screen.width * frac, y, 6, PALETTE["gray"])
        # Re-draw overlays so decorations are never hidden by the bars.
        for window in wm.overlays():
            render_view_tree(canvas, window.root, window.offset)


def render_screen(
    wm: WindowManager,
    noise_rng: Optional[np.random.Generator] = None,
    noise_scale: float = 0.008,
) -> Canvas:
    """Composite the full window stack into a screenshot.

    System bars are drawn above app windows whenever the foreground app
    is not full-screen; accessibility overlays are always topmost (their
    stack position already guarantees that).

    With ``noise_rng``, the frame gets the sensor noise of
    ``Canvas.add_noise`` (the same ``rng.normal`` values in the same
    order).  The process's noise helper supplies it when it can: a frame
    it drew ahead after the generator's last render, or one it draws
    while the stack rasterises if a core is idle; the rows it has not
    reached are drawn here.  Otherwise the noise is drawn inline.  The
    generator advances only when the noise is applied, so a raster that
    raises leaves it untouched; an error from the draw itself is raised
    here after the raster.
    """
    screen = wm.screen
    canvas = Canvas(screen.width, screen.height, background=_WALLPAPER)
    if noise_rng is None:
        _rasterise(wm, canvas)
        return canvas
    shape = canvas.pixels.shape
    claimed = _helper.claim(noise_rng, shape, noise_scale)
    try:
        _rasterise(wm, canvas)
    except BaseException:
        if claimed:
            _helper.drop()
        raise
    if claimed:
        _helper.finish(noise_rng, canvas.pixels)
    else:
        canvas.add_noise(noise_rng, scale=noise_scale)
    _helper.look_ahead(noise_rng, shape, noise_scale)
    return canvas
