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
thread whenever the process may use two CPUs: drawn up to two frames
ahead of each generator from the generator's second screenshot on, or
while the calling thread rasterises (``Generator.standard_normal``
releases the GIL).  On one CPU every frame draws its noise inline.
Pixels and the generator's state are bit-identical to rasterising
first and calling ``Canvas.add_noise`` after.
"""

from __future__ import annotations

import copy
import os
import threading
from typing import Dict, List, Optional, Tuple

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


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs: the noise
    helper's rule.  On one CPU it would only take turns with the
    rendering thread; without CPU affinity (not Linux) it is not used."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


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
    """One frame of noise in a generator's stream."""

    __slots__ = ("noise", "start", "end", "drawn", "error", "seq", "dropped")

    def __init__(self, noise: np.ndarray, start: Optional[dict],
                 seq: int) -> None:
        self.noise = noise
        # The generator's state where the frame begins: the caller's for
        # the stream's first frame, the end of the frame before it
        # otherwise (None until that one is complete).
        self.start = start
        self.end: Optional[dict] = None  # the clone's state once complete
        self.drawn = 0                   # rows drawn so far
        self.error: Optional[BaseException] = None  # raised by its draw
        self.seq = seq                   # queue order among all frames
        self.dropped = False             # unlinked from its stream


class _Stream:
    """One noise generator as the helper knows it: when it last rendered,
    and the frames queued for it, in stream order."""

    __slots__ = ("rng", "frames", "clone", "scale", "claimed", "held",
                 "last", "previous")

    def __init__(self, rng: np.random.Generator) -> None:
        # Held, so that no other generator can take over its id().
        self.rng = rng
        self.frames: List[_Frame] = []
        # The private copy the frames are drawn from; only while there
        # are frames.
        self.clone: Optional[np.random.Generator] = None
        self.scale = 0.0
        self.claimed = False  # a render owns the head frame
        self.held = False     # the rendering thread draws the head
        self.last: Optional[int] = None      # tick of its latest render
        self.previous: Optional[int] = None  # and of the one before


class _LookAhead:
    """The process's one noise helper: a thread, per-generator streams
    and three frame buffers.

    Each generator that renders gets a stream: up to two frames of its
    noise in stream order, drawn from the stream's private clone (the
    generator's ``bit_generator.state`` copied when the stream's first
    frame is queued), so the generator itself is never touched until a
    render commits a frame.  Each frame records its start state and,
    once complete, a snapshot of its end state.  The helper draws whole
    ``NOISE_ROWS`` blocks and, block by block, serves the highest
    priority frame it can draw (a stream's first incomplete one): the
    head of a stream a render has claimed first (a current frame is
    one), then look-ahead frames in the order they were queued.

    :meth:`claim` gives a render its stream when the head frame starts
    at the generator's current state, with the same frame shape and
    scale; a mismatch drops the stream's frames.  Otherwise it queues
    the current frame for the helper to draw while the caller
    rasterises.  :meth:`finish` applies the head.  A complete head, or
    one the helper has drawn at least half of (it waits for the rest),
    is added and clipped in place, and its end state is copied into the
    generator.  A head less than half drawn is taken over: the helper
    leaves the stream, the rows it did not reach are drawn here from the
    clone, and the frames behind the head stay queued (the clone stands
    at their start).  So outside a render a generator is always in its
    sequential state, and dropping frames is always safe.

    :meth:`look_ahead` notes every render and tops the generator's
    stream up to two frames from its second render on (a device's,
    whose screenshots follow one another; not the one-shot generators
    of ``datagen.corpus.render_state``).  All streams share at most
    three float32 frame buffers, allocated once per frame shape; a
    frame that finds none free reclaims one (:meth:`_buffer`).  Clones
    and block buffers are reused too, and the records of the
    ``RECORDS`` most recently rendered generators are kept.  A render
    whose generator another render owns, or that finds no buffer, draws
    inline with ``Canvas.add_noise``, which calls the same
    :func:`draw_noise`.  Only a process that may use two CPUs renders
    through the helper (:func:`render_screen`).
    """

    #: Frames the helper draws ahead of a generator's renders.
    DEPTH = 2
    #: Frame buffers shared by all streams.
    BUFFERS = 3
    #: Generators remembered: the most recently rendered ones.
    RECORDS = 16

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        # Guarded by _cond.  Streams by id(rng), least recently rendered
        # first.
        self._streams: Dict[int, _Stream] = {}
        self._tick = 0  # renders noted
        self._seq = 0   # frames queued
        self._drawing: Optional[_Frame] = None  # the helper's block's frame
        self._shape: Optional[Tuple[int, ...]] = None
        self._buffers: List[np.ndarray] = []  # all frame buffers
        self._free: List[np.ndarray] = []     # those no frame holds
        self._clones: List[np.random.Generator] = []  # no stream holds
        self._scratch: Optional[np.ndarray] = None  # the helper's block
        self._spares: List[np.ndarray] = []  # take-over block buffers

    def claim(self, rng: np.random.Generator, shape: Tuple[int, ...],
              scale: float) -> Optional[_Stream]:
        """Own ``rng``'s stream, with its head frame queued, or ``None``
        (draw inline)."""
        with self._cond:
            stream = self._streams.get(id(rng))
            if stream is None:
                stream = self._record(rng)
            elif stream.claimed:
                return None
            stream.claimed = True
            if stream.frames:
                if self._continues(stream, shape, scale):
                    self._cond.notify_all()  # its head now goes first
                    return stream
                self._remove(stream, stream.frames)
            if self._fits(shape):
                noise = self._buffer(stream, stale_only=False)
                if noise is not None:
                    self._push(stream, noise, rng.bit_generator.state, scale)
                    return stream
            stream.claimed = False
            return None

    def finish(self, stream: _Stream, rng: np.random.Generator,
               pixels: np.ndarray) -> None:
        """Complete the claimed head, add and clip it into ``pixels``,
        and advance ``rng`` past it."""
        with self._cond:
            head = stream.frames[0]
            # A helper past half the frame is keeping up: wait for it,
            # so the stream it draws never stops.
            while (head.end is None and head.error is None
                   and 2 * head.drawn >= len(head.noise)):
                self._cond.wait()
            take_over = head.end is None and head.error is None
            if take_over:
                stream.held = True
                while self._drawing is head:
                    self._cond.wait()
                scratch = (self._spares.pop() if self._spares else
                           np.empty((NOISE_ROWS,) + head.noise.shape[1:]))
        taken = False
        try:
            if head.error is not None:
                raise head.error
            if take_over:
                draw_noise(stream.clone, head.noise[head.drawn:],
                           stream.scale, scratch)
                with self._cond:
                    # The helper may go on with the frame behind it.
                    self._complete(stream, head)
                    stream.held = False
                    self._cond.notify_all()
            apply_noise(pixels, head.noise)
            rng.bit_generator.state = head.end
            taken = True
        finally:
            with self._cond:
                if take_over:
                    stream.held = False
                    self._spares.append(scratch)
                # The next frame, if any, starts at rng's new state.
                self._remove(stream, [head] if taken else stream.frames)
                stream.claimed = False
                self._cond.notify_all()

    def drop(self, stream: _Stream) -> None:
        """Give up a claimed stream and its frames; its generator was
        never touched."""
        with self._cond:
            self._remove(stream, stream.frames)
            stream.claimed = False
            self._cond.notify_all()

    def look_ahead(self, rng: np.random.Generator, shape: Tuple[int, ...],
                   scale: float) -> None:
        """Note that ``rng`` fed a render, and from its second render on
        top its stream up to ``DEPTH`` frames."""
        with self._cond:
            self._tick += 1
            stream = self._streams.pop(id(rng), None)
            if stream is None:
                stream = self._record(rng)
            self._streams[id(rng)] = stream
            stream.previous, stream.last = stream.last, self._tick
            if (stream.previous is None or stream.claimed
                    or len(stream.frames) >= self.DEPTH
                    or not self._fits(shape)):
                return
            while len(stream.frames) < self.DEPTH:
                noise = self._buffer(stream, stale_only=bool(stream.frames))
                if noise is None:
                    return
                start = (stream.frames[-1].end if stream.frames
                         else rng.bit_generator.state)
                self._push(stream, noise, start, scale)

    # -- under _cond --------------------------------------------------

    def _record(self, rng: np.random.Generator) -> _Stream:
        """A new stream for ``rng``; the oldest records with nothing
        queued or claimed make room."""
        idle = [key for key, s in self._streams.items()
                if not (s.frames or s.claimed)]
        for key in idle[:max(0, len(self._streams) + 1 - self.RECORDS)]:
            del self._streams[key]
        stream = self._streams[id(rng)] = _Stream(rng)
        return stream

    def _continues(self, stream: _Stream, shape: Tuple[int, ...],
                   scale: float) -> bool:
        """Whether the stream's head is its generator's next frame."""
        head = stream.frames[0]
        return (head.noise.shape == shape and stream.scale == scale
                and _same_state(stream.rng.bit_generator.state, head.start))

    def _fits(self, shape: Tuple[int, ...]) -> bool:
        """Make the buffers ``shape``'s, dropping every frame of another
        shape; ``False`` while a render owns one."""
        while shape != self._shape:
            queued = [s for s in self._streams.values() if s.frames]
            if any(s.claimed for s in queued):
                return False
            if queued:
                self._remove(queued[0], queued[0].frames)
                continue
            self._shape = shape
            self._buffers, self._free, self._spares = [], [], []
            self._scratch = np.empty((NOISE_ROWS,) + shape[1:])
        return True

    def _buffer(self, stream: _Stream,
                stale_only: bool) -> Optional[np.ndarray]:
        """A frame buffer for ``stream``: a free one, a new one while
        there are fewer than ``BUFFERS``, or the least recently rendered
        other generator's last frame's.  With ``stale_only`` (a second
        frame) only a generator that has not rendered since ``stream``'s
        previous render gives one up; ``None`` if nothing can be had."""
        while not self._free:
            if len(self._buffers) < self.BUFFERS:
                self._buffers.append(np.empty(self._shape, dtype=np.float32))
                return self._buffers[-1]
            victims = [s for s in self._streams.values()
                       if s.frames and not s.claimed and s is not stream
                       and not (stale_only and s.last >= stream.previous)]
            if not victims:
                return None
            victim = min(victims, key=lambda s: s.last)
            self._remove(victim, victim.frames[-1:])
        return self._free.pop()

    def _push(self, stream: _Stream, noise: np.ndarray,
              start: Optional[dict], scale: float) -> None:
        """Queue a frame at the end of ``stream``."""
        if not stream.frames:
            kind = type(stream.rng.bit_generator)
            stream.clone = next(
                (c for c in self._clones if type(c.bit_generator) is kind),
                None)
            if stream.clone is None:
                stream.clone = copy.deepcopy(stream.rng)
            else:
                self._clones.remove(stream.clone)
            stream.clone.bit_generator.state = start
            stream.scale = scale
        self._seq += 1
        stream.frames.append(_Frame(noise, start, self._seq))
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="render-noise", daemon=True)
            self._thread.start()
        self._cond.notify_all()

    def _remove(self, stream: _Stream, frames: List[_Frame]) -> None:
        """Unlink ``frames`` (the head, or a tail of the stream) and,
        once the helper has finished any block of theirs, free their
        buffers, and the clone if the stream is left empty.  The lock is
        let go while waiting; the unlinked frames and their buffers are
        out of everyone's reach meanwhile."""
        frames = list(frames)
        for frame in frames:
            frame.dropped = True
        stream.frames = [f for f in stream.frames if not f.dropped]
        clone = None
        if not stream.frames:
            clone, stream.clone = stream.clone, None
        while any(self._drawing is frame for frame in frames):
            self._cond.wait()
        # A buffer of a shape given up meanwhile (``_fits``) stays out.
        self._free.extend(frame.noise for frame in frames
                          if any(frame.noise is b for b in self._buffers))
        if clone is not None:
            self._clones.append(clone)

    def _complete(self, stream: _Stream, frame: _Frame) -> None:
        """Mark ``frame`` drawn to the end, at the clone's state."""
        frame.drawn = len(frame.noise)
        frame.end = stream.clone.bit_generator.state
        following = stream.frames.index(frame) + 1
        if following < len(stream.frames):
            stream.frames[following].start = frame.end

    def _next_frame(self) -> Optional[Tuple[_Stream, _Frame]]:
        """The frame the helper draws a block of next, with its stream."""
        best: Optional[Tuple[_Stream, _Frame]] = None
        rank: Optional[Tuple[bool, int]] = None
        for stream in self._streams.values():
            if stream.held:
                continue
            frame = next((f for f in stream.frames if f.end is None), None)
            if frame is None or frame.error is not None:
                continue
            # A claimed head goes first, then queue order.
            key = (not (stream.claimed and frame is stream.frames[0]),
                   frame.seq)
            if rank is None or key < rank:
                best, rank = (stream, frame), key
        return best

    # -- the helper thread --------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                picked = self._next_frame()
                while picked is None:
                    self._cond.wait()
                    picked = self._next_frame()
                stream, frame = picked
                self._drawing = frame
                clone, scale = stream.clone, stream.scale
                scratch, y0 = self._scratch, frame.drawn
            error = None
            try:
                draw_noise(clone, frame.noise[y0:y0 + NOISE_ROWS], scale,
                           scratch)
            except BaseException as exc:  # re-raised by finish()
                error = exc
            with self._cond:
                self._drawing = None
                if not frame.dropped:
                    if error is not None:
                        frame.error = error
                    elif y0 + NOISE_ROWS >= len(frame.noise):
                        self._complete(stream, frame)
                    else:
                        frame.drawn = y0 + NOISE_ROWS
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
    order).  In a process that may use two CPUs, the noise helper
    supplies it when it can: a frame it drew ahead in the generator's
    stream, or one it draws while the stack rasterises; the rows it has
    not reached are drawn here.  Otherwise the noise is drawn inline,
    and on one CPU the helper is never touched.  The generator advances
    only when the noise is applied, so a raster that raises leaves it
    untouched; an error from the draw itself is raised here after the
    raster.
    """
    screen = wm.screen
    canvas = Canvas(screen.width, screen.height, background=_WALLPAPER)
    if noise_rng is None or not _two_cpus():
        _rasterise(wm, canvas)
        if noise_rng is not None:
            canvas.add_noise(noise_rng, scale=noise_scale)
        return canvas
    shape = canvas.pixels.shape
    stream = _helper.claim(noise_rng, shape, noise_scale)
    try:
        _rasterise(wm, canvas)
    except BaseException:
        if stream is not None:
            _helper.drop(stream)
        raise
    if stream is not None:
        _helper.finish(stream, noise_rng, canvas.pixels)
    else:
        canvas.add_noise(noise_rng, scale=noise_scale)
    _helper.look_ahead(noise_rng, shape, noise_scale)
    return canvas
