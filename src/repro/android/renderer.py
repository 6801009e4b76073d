"""Rasterizing window stacks into screenshots.

``AccessibilityService.take_screenshot`` ultimately calls
:func:`render_screen`, which composites the window stack bottom-to-top
onto a :class:`~repro.imaging.canvas.Canvas`, then draws the system bars
when the foreground app is not full-screen.  Ground-truth images for the
dataset generator come through the same code path, so the detector never
sees a rendering style it wasn't trained on.

Sensor noise is the costliest part of a screenshot (691,200 Gaussian
draws per 640x360 frame), and rasterising never reads the noise
generator, so when a core is idle :func:`render_screen` draws the noise
on a helper thread while the calling thread rasterises
(``Generator.normal`` releases the GIL).  Pixels and the generator's
final state are bit-identical to rasterising first and calling
``Canvas.add_noise`` after.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple

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


class _NoiseDraw:
    """One frame of sensor noise, drawn on a helper thread.

    The helper draws whole ``NOISE_ROWS`` blocks in row order until the
    rendering thread, its raster done, asks for the frame; the rendering
    thread then draws the rows the helper did not reach itself.  So a
    helper slowed down by a busy second core never makes a render wait
    for more than one block.

    A helper starts only when a core is idle (:func:`_core_idle`), and
    at most one runs per process, drawing into the one frame buffer
    every helper reuses, so the overlap costs one frame of memory in
    all.  (A buffer per render would be freed into the allocator arena
    of whichever thread rendered, and daemon session threads would each
    keep a stale frame.)  A render that finds no idle core, or the slot
    taken (daemon session threads rendering at once), gets ``None``
    from :meth:`start` and draws inline with ``Canvas.add_noise``, which
    calls the same :func:`draw_noise`.  The helper thread lives for one
    render only, so no thread outlives a render to be lost across a
    fork.
    """

    #: Held from a helper's start until its frame is applied or dropped.
    _slot = threading.Lock()
    #: The frame buffer helpers draw into; used only under the slot.
    _frame: Optional[np.ndarray] = None

    def __init__(self, rng: np.random.Generator, noise: np.ndarray,
                 scale: float):
        self._rng = rng
        self._noise = noise
        self._scale = scale
        # The sequential order never touches the generator when the
        # raster raises; cancel() restores this snapshot to match.
        self._state = rng.bit_generator.state
        self._drawn = 0  # rows the helper has drawn
        self._error: Optional[BaseException] = None
        self._handoff = threading.Event()
        self._thread = threading.Thread(target=self._draw,
                                        name="render-noise", daemon=True)
        self._thread.start()

    @classmethod
    def start(cls, rng: np.random.Generator, shape: Tuple[int, ...],
              scale: float) -> Optional["_NoiseDraw"]:
        """Start drawing a frame of noise, or ``None`` if no core is idle
        or the slot is taken."""
        if not _core_idle() or not cls._slot.acquire(blocking=False):
            return None
        try:
            if cls._frame is None or cls._frame.shape != shape:
                cls._frame = np.empty(shape, dtype=np.float32)
            return cls(rng, cls._frame, scale)
        except BaseException:
            cls._slot.release()
            raise

    @classmethod
    def _reset_after_fork(cls) -> None:
        # A fork child has only the forking thread; a slot some other
        # parent thread held would otherwise stay taken for good.
        cls._slot = threading.Lock()

    def _draw(self) -> None:
        try:
            for y0 in range(0, len(self._noise), NOISE_ROWS):
                if self._handoff.is_set():
                    return
                draw_noise(self._rng, self._noise[y0:y0 + NOISE_ROWS],
                           self._scale)
                self._drawn = y0 + NOISE_ROWS
        except BaseException as exc:
            self._error = exc  # re-raised on the rendering thread by apply_to

    def _stop(self) -> None:
        self._handoff.set()
        self._thread.join()

    def apply_to(self, canvas: Canvas) -> None:
        """Finish the draw on this thread, then add and clip it into
        ``canvas``."""
        self._stop()
        try:
            if self._error is not None:
                raise self._error
            draw_noise(self._rng, self._noise[self._drawn:], self._scale)
            apply_noise(canvas.pixels, self._noise)
        finally:
            self._slot.release()

    def cancel(self) -> None:
        """Stop the draw, drop it and rewind the generator."""
        self._stop()
        self._rng.bit_generator.state = self._state
        self._slot.release()


os.register_at_fork(after_in_child=_NoiseDraw._reset_after_fork)


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

    With ``noise_rng``, the frame's sensor noise is drawn on a helper
    thread while the stack rasterises if a core is idle (the rows it has
    not reached when the raster ends are drawn here), with the same
    ``rng.normal`` calls in the same order as ``Canvas.add_noise``.  If
    the raster raises, the generator is rewound to its state on entry;
    an error from the draw itself is raised here after the raster.
    """
    screen = wm.screen
    canvas = Canvas(screen.width, screen.height, background=_WALLPAPER)
    noise = None
    if noise_rng is not None:
        noise = _NoiseDraw.start(noise_rng, canvas.pixels.shape, noise_scale)
    try:
        _rasterise(wm, canvas)
    except BaseException:
        if noise is not None:
            noise.cancel()
        raise
    if noise is not None:
        noise.apply_to(canvas)
    elif noise_rng is not None:
        canvas.add_noise(noise_rng, scale=noise_scale)
    return canvas
