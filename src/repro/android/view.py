"""Views and view trees.

A ``View`` is the unit of UI in the substrate, mirroring
``android.view.View``: it owns bounds (in *window* coordinates), visual
styling, interactivity flags, a resource id, and children.  The dataset
generator additionally tags views with a :class:`SemanticRole` so that
ground-truth AGO/UPO boxes can be derived mechanically from the tree
instead of hand-labeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, List, Optional

from repro.geometry.rect import Rect
from repro.imaging.color import Color
from repro.android.resources import ResourceId


class Visibility(Enum):
    """Android's three-state view visibility."""

    VISIBLE = "visible"
    INVISIBLE = "invisible"  # occupies space but is not drawn
    GONE = "gone"            # neither drawn nor laid out


class SemanticRole(Enum):
    """Ground-truth annotation role of a view.

    Only ``AGO`` and ``UPO`` produce detection targets; everything else
    is scenery.  ``BENIGN_CLOSE`` marks small close buttons on screens
    that are *not* AUIs — the paper's main false-positive source.
    """

    NONE = "none"
    AGO = "AGO"
    UPO = "UPO"
    BENIGN_CLOSE = "benign_close"
    CONTENT = "content"


class Shape(Enum):
    """Drawable background shape of a view."""

    RECT = "rect"
    ROUNDED = "rounded"
    CIRCLE = "circle"


_view_ids = itertools.count(1)

#: Stack marker of :meth:`View.hit_test`: the view beneath it is the hit.
_CLICKABLE = object()


@dataclass
class View:
    """A node of the simulated view hierarchy.

    ``bounds`` are expressed in the coordinate space of the containing
    window (NOT the screen); the window's own offset is applied at
    render/hit-test time, exactly as on Android — this distinction is
    what makes the paper's Figure 4 calibration bug reproducible.
    """

    bounds: Rect
    resource_id: Optional[ResourceId] = None
    clickable: bool = False
    visibility: Visibility = Visibility.VISIBLE
    role: SemanticRole = SemanticRole.NONE

    # -- styling ------------------------------------------------------
    shape: Shape = Shape.RECT
    bg_color: Optional[Color] = None
    bg_alpha: float = 1.0
    corner_radius: float = 0.0
    border_color: Optional[Color] = None
    border_width: int = 0
    text: Optional[str] = None
    text_size: float = 12.0
    text_color: Optional[Color] = None
    text_alpha: float = 1.0
    icon: Optional[str] = None  # "cross" | "circle" | "bar"
    icon_color: Optional[Color] = None
    icon_alpha: float = 1.0

    # -- behaviour -------------------------------------------------------
    on_click: Optional[Callable[[], None]] = None
    children: List["View"] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.view_id: int = next(_view_ids)
        if not 0.0 <= self.bg_alpha <= 1.0:
            raise ValueError(f"bg_alpha out of range: {self.bg_alpha}")

    # -- tree ops ----------------------------------------------------------

    def add_child(self, child: "View") -> "View":
        self.children.append(child)
        return child

    def iter_tree(self) -> Iterator["View"]:
        """Pre-order traversal including self; skips GONE subtrees."""
        if self.visibility is Visibility.GONE:
            return
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def iter_visible(self) -> Iterator["View"]:
        """Pre-order traversal of views that are actually drawn."""
        for view in self.iter_tree():
            if view.visibility is Visibility.VISIBLE:
                yield view

    def find_by_role(self, role: SemanticRole) -> List["View"]:
        return [v for v in self.iter_tree() if v.role is role]

    def find_by_resource_entry(self, needle: str) -> List["View"]:
        """Views whose resource-id entry contains ``needle``."""
        out = []
        for v in self.iter_tree():
            if v.resource_id is not None and needle in v.resource_id.entry:
                out.append(v)
        return out

    # -- interaction -----------------------------------------------------

    def hit_test(self, x: float, y: float) -> Optional["View"]:
        """Topmost visible *clickable* view at window point ``(x, y)``.

        Android dispatches touches to the deepest, latest-drawn view:
        only VISIBLE views whose bounds hold the point (right and bottom
        edges inclusive, as :meth:`Rect.contains_point`) are entered,
        their children in reverse draw order, and a clickable view is
        the hit only when none of its children is.  The walk keeps an
        explicit stack: a clickable view is pushed under the
        ``_CLICKABLE`` marker beneath its children, so it is popped
        only once every child subtree has missed.  A non-clickable leaf
        can hold no hit, so it is dropped before its bounds are read.
        """
        visible = Visibility.VISIBLE
        stack: List[object] = [self]
        pop, push, extend = stack.pop, stack.append, stack.extend
        while stack:
            view = pop()
            if view is _CLICKABLE:
                return pop()
            children = view.children
            if not (children or view.clickable) or view.visibility is not visible:
                continue
            b = view.bounds
            if b.x <= x <= b.x + b.w and b.y <= y <= b.y + b.h:
                if view.clickable:
                    push(view)
                    push(_CLICKABLE)
                extend(children)
        return None

    def click(self) -> bool:
        """Invoke the click handler; True when one ran."""
        if self.on_click is not None:
            self.on_click()
            return True
        return False

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        """Tree height below (and including) this node."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def count(self) -> int:
        return sum(1 for _ in self.iter_tree())


class ViewGroup(View):
    """A container view; identical to :class:`View` but never clickable
    by default and conventionally style-free.  Exists so generated trees
    read like Android layouts."""

    pass
