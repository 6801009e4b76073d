"""AUI screen templates — one per Table I subject.

Every template materializes the visual asymmetry the paper defines
(Section II-A): the App-Guided Option is large, central and
high-contrast; the User-Preferred Option is small, peripheral,
low-contrast or translucent.  Templates build *view trees*, not
bitmaps, so the same sample feeds the CV pipeline (via rendering), the
FraudDroid-like baseline (via metadata) and the runtime experiments
(via simulated apps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.imaging.color import Color, PALETTE, mix
from repro.imaging.color import AGO_ACCENTS, UPO_MUTED
from repro.android.resources import ResourceIdPolicy, make_resource_id
from repro.android.view import SemanticRole, Shape, View, ViewGroup
from repro.android.apps import ScreenState
from repro.datagen.background import build_background_content
from repro.datagen.specs import AuiType, SampleSpec
from repro.scalars import clip, pick, pick_weighted, weights_cdf

WINDOW_W = 360
WINDOW_H = 568
FULLSCREEN_H = 640

_AGO_TEXTS = ("open now", "get it", "download", "subscribe", "upgrade",
              "claim cash", "join free", "allow", "rate five", "buy now")
_UPO_TEXTS = ("skip", "close", "later", "no thanks", "cancel", "deny")
#: Bare text links use short labels — "no thanks" renders as a wide
#: banner at UPO sizes, which no real app does for a dismiss link.
_UPO_LINK_TEXTS = ("skip", "close", "later", "deny")
_DECOY_TEXTS = ("learn more", "see rules", "details")
#: Relative heights of an off-centre AGO and of a peripheral UPO.
_AGO_EDGE_YS = (0.18, 0.88)
_UPO_STRIP_YS = (0.78, 0.86)
#: Cornered UPOs: top-right, top-left, bottom-right.
_CORNER_CDF = weights_cdf((0.72, 0.16, 0.12))
_UPO_STYLES = ("cross", "chip", "text")
_UPO_STYLE_CDF = weights_cdf((0.7, 0.25, 0.05))
_AD_TAG_XS = (6, WINDOW_W - 40)


@dataclass
class _Minter:
    """Mints resource ids under the sample app's naming policy."""

    package: str
    policy: ResourceIdPolicy
    rng: np.random.Generator

    def __call__(self, readable: str):
        return make_resource_id(self.package, readable, self.policy, self.rng)


def _accent(rng: np.random.Generator) -> Color:
    return PALETTE[pick(rng, AGO_ACCENTS)]


def _muted(rng: np.random.Generator) -> Color:
    return PALETTE[pick(rng, UPO_MUTED)]


def _window_height(fullscreen: bool) -> int:
    return FULLSCREEN_H if fullscreen else WINDOW_H


# ---------------------------------------------------------------------------
# Option builders
# ---------------------------------------------------------------------------

def _ago_rect(rng: np.random.Generator, central: bool, height: int) -> Rect:
    """Geometry of an AGO button: big, and central when the spec says so."""
    w = float(rng.uniform(190, 290))
    h = float(rng.uniform(46, 66))
    if central:
        cx = WINDOW_W / 2 + float(rng.uniform(-12, 12))
        cy = height * float(rng.uniform(0.42, 0.68))
    else:
        cx = WINDOW_W / 2 + float(rng.uniform(-40, 40))
        cy = height * pick(rng, _AGO_EDGE_YS) + float(rng.uniform(-10, 10))
    return Rect.from_center(cx, cy, w, h)


def _add_ago(root: View, rng: np.random.Generator, spec: SampleSpec,
             mint: _Minter, text: Optional[str] = None,
             circle: bool = False) -> Rect:
    height = _window_height(spec.fullscreen)
    # Integer-aligned bounds: real annotation boxes are drawn on the
    # pixel grid, and pixel alignment is what makes IoU=0.9 reachable.
    rect = _ago_rect(rng, spec.ago_central, height).rounded()
    color = _accent(rng)
    # A minority of real AGOs are sloppily designed: washed-out colors
    # that barely pop from the artwork.  These drive AGO recall below
    # AGO precision, as in the paper's Table III.
    if rng.random() < 0.22:
        color = mix(color, PALETTE["near_white"], float(rng.uniform(0.55, 0.8)))
    # Many promo screens carry a *secondary* call-to-action (learn
    # more, see rules…) that is NOT the app-guided option; an imperfect
    # detector confuses the two, which is the paper's AGO FP source.
    if rng.random() < 0.45:
        _add_decoy_button(root, rng, mint, height, avoid=rect)
    if circle:
        d = float(rng.uniform(88, 120))
        rect = Rect.from_center(*rect.center, d, d).rounded()
        view = View(bounds=rect, shape=Shape.CIRCLE, bg_color=color,
                    clickable=True, role=SemanticRole.AGO,
                    resource_id=mint("btn_action"),
                    text=text or pick(rng, _AGO_TEXTS), text_size=13,
                    text_color=PALETTE["white"])
    else:
        view = View(bounds=rect, shape=Shape.ROUNDED, bg_color=color,
                    corner_radius=rect.h / 2.2, clickable=True,
                    role=SemanticRole.AGO, resource_id=mint("btn_action"),
                    text=text or pick(rng, _AGO_TEXTS),
                    text_size=15, text_color=PALETTE["white"])
    root.add_child(view)
    return rect


def _add_decoy_button(root: View, rng: np.random.Generator, mint: _Minter,
                      height: int, avoid: Rect) -> None:
    """An unannotated mid-size secondary button near the AGO."""
    w = float(rng.uniform(110, 175))
    h = float(rng.uniform(32, 46))
    for _ in range(10):
        cx = WINDOW_W / 2 + float(rng.uniform(-60, 60))
        cy = float(rng.uniform(height * 0.25, height * 0.9))
        rect = Rect.from_center(cx, cy, w, h).rounded()
        if rect.inflated(8).intersection(avoid).is_empty():
            break
    else:
        return
    color = mix(_accent(rng), PALETTE["white"], float(rng.uniform(0.1, 0.4)))
    root.add_child(View(bounds=rect, shape=Shape.ROUNDED,
                        corner_radius=rect.h / 2.2, bg_color=color,
                        clickable=True, text=pick(rng, _DECOY_TEXTS),
                        text_size=11, text_color=PALETTE["white"],
                        resource_id=mint("btn_secondary")))


def _upo_rect(rng: np.random.Generator, corner: bool, height: int,
              size: float) -> Rect:
    if corner:
        margin = float(rng.uniform(8, 26))
        corners = (
            (WINDOW_W - margin - size, margin),               # top-right
            (margin, margin),                                 # top-left
            (WINDOW_W - margin - size, height - margin - size),  # bottom-right
        )
        x, y = pick_weighted(rng, corners, _CORNER_CDF)
    else:
        # Peripheral but not cornered: a thin strip above/below center.
        x = WINDOW_W / 2 + float(rng.uniform(-70, 70)) - size / 2
        y = height * pick(rng, _UPO_STRIP_YS) - size / 2
    return Rect(x, y, size, size)


def _clamp_to_window(rect: Rect, height: int, margin: float = 2.0) -> Rect:
    """Keep an option fully on screen; off-screen options would be
    unannotatable (and unclickable) on a real device."""
    x = clip(rect.x, margin, WINDOW_W - margin - rect.w)
    y = clip(rect.y, margin, height - margin - rect.h)
    return Rect(x, y, rect.w, rect.h)


def _add_upo(root: View, rng: np.random.Generator, spec: SampleSpec,
             mint: _Minter, occupied: List[Rect]) -> List[Rect]:
    """Add ``spec.n_upo`` user-preferred options; returns their rects."""
    height = _window_height(spec.fullscreen)
    rects: List[Rect] = []
    for i in range(spec.n_upo):
        if spec.hard_upo:
            size = float(rng.uniform(11, 16))
            alpha = float(rng.uniform(0.2, 0.42))
        else:
            size = float(rng.uniform(17, 30))
            alpha = float(rng.uniform(0.88, 1.0))
        corner = spec.upo_corner if i == 0 else not spec.upo_corner
        for _ in range(12):  # rejection-sample a free spot
            rect = _upo_rect(rng, corner, height, size)
            if all(rect.inflated(6).intersection(o).is_empty() for o in occupied + rects):
                break
        style = pick_weighted(rng, _UPO_STYLES, _UPO_STYLE_CDF)
        if style == "cross":
            rect = _clamp_to_window(rect, height).rounded()
            view = View(bounds=rect, shape=Shape.CIRCLE,
                        bg_color=_muted(rng), bg_alpha=alpha,
                        icon="cross", icon_color=PALETTE["dark_gray"],
                        icon_alpha=alpha, clickable=True,
                        role=SemanticRole.UPO, resource_id=mint("iv_close"))
        elif style == "chip":
            chip = _clamp_to_window(
                Rect(rect.x - size * 0.7, rect.y, size * 2.4, size),
                height).rounded()
            rect = chip
            view = View(bounds=chip, shape=Shape.ROUNDED,
                        corner_radius=chip.h / 2, bg_color=_muted(rng),
                        bg_alpha=alpha, clickable=True,
                        text=pick(rng, _UPO_TEXTS),
                        text_size=max(6.0, chip.h * 0.45),
                        text_color=PALETTE["dark_gray"], text_alpha=alpha,
                        role=SemanticRole.UPO, resource_id=mint("btn_skip"))
        else:
            # Bare text link: bounds sized to the rendered ink so the
            # annotation matches what a labeler would draw around it.
            from repro.imaging.text import pseudo_text_width
            text = pick(rng, _UPO_LINK_TEXTS)
            text_size = max(6.0, min(size * 0.8, 16.0))
            ink_w = pseudo_text_width(text, text_size)
            label = _clamp_to_window(
                Rect(rect.x - ink_w / 2, rect.y, ink_w, text_size),
                height).rounded()
            rect = label
            view = View(bounds=label, clickable=True, text=text,
                        text_size=text_size,
                        text_color=PALETTE["gray"], text_alpha=alpha,
                        role=SemanticRole.UPO, resource_id=mint("tv_cancel"))
        root.add_child(view)
        rects.append(rect)
    return rects


# ---------------------------------------------------------------------------
# Shared scaffolding
# ---------------------------------------------------------------------------

def _dim_scrim(root: ViewGroup, rng: np.random.Generator, height: int) -> None:
    root.add_child(View(bounds=Rect(0, 0, WINDOW_W, height),
                        bg_color=PALETTE["black"],
                        bg_alpha=float(rng.uniform(0.45, 0.7))))


def _dialog_card(root: ViewGroup, rng: np.random.Generator,
                 height: int, tall: bool = False) -> Rect:
    w = float(rng.uniform(260, 310))
    h = float(rng.uniform(300, 400)) if tall else float(rng.uniform(180, 260))
    card = Rect.from_center(WINDOW_W / 2, height * 0.45, w, h)
    root.add_child(View(bounds=card, shape=Shape.ROUNDED, corner_radius=14,
                        bg_color=PALETTE["white"]))
    return card


def _poster(root: ViewGroup, rng: np.random.Generator, height: int) -> None:
    """Full-bleed promotional artwork (gradient + blocks + banner text)."""
    a, b = _accent(rng), _accent(rng)
    root.add_child(View(bounds=Rect(0, 0, WINDOW_W, height),
                        bg_color=mix(a, PALETTE["white"], 0.15)))
    for _ in range(int(rng.integers(2, 5))):
        bw = float(rng.uniform(60, 200))
        bh = float(rng.uniform(40, 140))
        x = float(rng.uniform(0, WINDOW_W - bw))
        y = float(rng.uniform(40, height - bh - 40))
        # Pastel blocks: strongly whitened so the vivid AGO keeps a
        # clear color margin against the artwork around it.
        root.add_child(View(bounds=Rect(x, y, bw, bh), shape=Shape.ROUNDED,
                            corner_radius=10,
                            bg_color=mix(b, PALETTE["white"],
                                         float(rng.uniform(0.5, 0.8))),
                            bg_alpha=float(rng.uniform(0.6, 1.0))))
    root.add_child(View(bounds=Rect(30, height * 0.22, WINDOW_W - 60, 26),
                        text="mega sale today", text_size=20,
                        text_color=PALETTE["white"]))


def _ad_tag(root: ViewGroup, rng: np.random.Generator, height: int,
            mint: _Minter) -> None:
    """The legally-required but barely-noticeable "advertisement" tag."""
    x = float(pick(rng, _AD_TAG_XS))
    y = float(pick(rng, (6, height - 16)))
    root.add_child(View(bounds=Rect(x, y, 34, 10), text="AD",
                        text_size=7, text_color=PALETTE["gray"],
                        text_alpha=0.55, resource_id=mint("tv_ad_tag")))


# ---------------------------------------------------------------------------
# Per-type templates
# ---------------------------------------------------------------------------

def _tpl_advertisement(root, rng, spec, mint, height):
    _poster(root, rng, height)
    _ad_tag(root, rng, height, mint)
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="open now")
    # Whole-surface ad: tapping anywhere opens it; no distinct AGO box.
    root.clickable = True
    root.resource_id = mint("ad_container")
    return None


def _tpl_sales_promotion(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    card = _dialog_card(root, rng, height, tall=True)
    root.add_child(View(bounds=Rect(card.x + 20, card.y + 24, card.w - 40, 20),
                        text="limited offer", text_size=16,
                        text_color=PALETTE["red"]))
    root.add_child(View(bounds=Rect(card.x + 24, card.y + 64, card.w - 48,
                                    card.h * 0.34),
                        bg_color=mix(_accent(rng), PALETTE["white"], 0.6),
                        corner_radius=8))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="join free")
    root.clickable = True
    root.resource_id = mint("promo_container")
    return None


def _tpl_lucky_money(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    packet = Rect.from_center(WINDOW_W / 2, height * 0.44,
                              float(rng.uniform(230, 280)),
                              float(rng.uniform(300, 360)))
    root.add_child(View(bounds=packet, shape=Shape.ROUNDED, corner_radius=18,
                        bg_color=PALETTE["lucky_red"]))
    root.add_child(View(bounds=Rect(packet.x + 24, packet.y + 30,
                                    packet.w - 48, 22),
                        text="cash reward", text_size=17,
                        text_color=PALETTE["gold"]))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="claim cash", circle=True)
    root.clickable = True
    root.resource_id = mint("red_packet")
    return None


def _tpl_app_upgrade(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    card = _dialog_card(root, rng, height)
    root.add_child(View(bounds=Rect(card.x + 20, card.y + 20, card.w - 40, 18),
                        text="new version ready", text_size=14,
                        text_color=PALETTE["black"]))
    for i in range(3):
        root.add_child(View(bounds=Rect(card.x + 24, card.y + 56 + i * 18,
                                        (card.w - 48) * 0.8, 8),
                            bg_color=PALETTE["light_gray"]))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="upgrade")
    root.clickable = True
    root.resource_id = mint("upgrade_dialog")
    return None


def _tpl_operation_guide(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    spot = Rect.from_center(float(rng.uniform(80, 280)),
                            float(rng.uniform(120, height - 160)), 90, 90)
    root.add_child(View(bounds=spot, shape=Shape.CIRCLE,
                        bg_color=PALETTE["white"], bg_alpha=0.92))
    root.add_child(View(bounds=Rect(40, spot.bottom + 18, WINDOW_W - 80, 14),
                        text="tap here to explore", text_size=11,
                        text_color=PALETTE["white"]))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="got it")
    root.clickable = True
    root.resource_id = mint("guide_overlay")
    return None


def _tpl_feedback_request(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    card = _dialog_card(root, rng, height)
    root.add_child(View(bounds=Rect(card.x + 20, card.y + 22, card.w - 40, 16),
                        text="enjoying the app", text_size=13,
                        text_color=PALETTE["black"]))
    for i in range(5):
        cx = card.x + card.w / 2 + (i - 2) * 34
        root.add_child(View(bounds=Rect.from_center(cx, card.y + 80, 24, 24),
                            shape=Shape.CIRCLE, bg_color=PALETTE["amber"]))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="rate five")
    root.clickable = True
    root.resource_id = mint("rate_dialog")
    return None


def _tpl_permission_request(root, rng, spec, mint, height):
    _dim_scrim(root, rng, height)
    card = _dialog_card(root, rng, height)
    root.add_child(View(bounds=Rect(card.x + 20, card.y + 22, card.w - 40, 14),
                        text="allow location always", text_size=12,
                        text_color=PALETTE["black"]))
    root.add_child(View(bounds=Rect(card.x + 24, card.y + 52, card.w - 48, 40),
                        bg_color=PALETTE["near_white"], corner_radius=6))
    if spec.has_ago:
        return _add_ago(root, rng, spec, mint, text="allow")
    root.clickable = True
    root.resource_id = mint("perm_dialog")
    return None


_TEMPLATES = {
    AuiType.ADVERTISEMENT: _tpl_advertisement,
    AuiType.SALES_PROMOTION: _tpl_sales_promotion,
    AuiType.LUCKY_MONEY: _tpl_lucky_money,
    AuiType.APP_UPGRADE: _tpl_app_upgrade,
    AuiType.OPERATION_GUIDE: _tpl_operation_guide,
    AuiType.FEEDBACK_REQUEST: _tpl_feedback_request,
    AuiType.PERMISSION_REQUEST: _tpl_permission_request,
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def build_aui_screen(
    spec: SampleSpec,
    package: str = "com.example.app",
    id_policy: ResourceIdPolicy = ResourceIdPolicy.READABLE,
) -> ScreenState:
    """Materialize a sample spec into a labeled AUI screen."""
    rng = np.random.default_rng(spec.style_seed)
    mint = _Minter(package, id_policy, rng)
    height = _window_height(spec.fullscreen)
    root = ViewGroup(bounds=Rect(0, 0, WINDOW_W, height),
                     bg_color=PALETTE["white"])
    # Dialog-style AUIs sit above ordinary app content.
    if spec.aui_type is not AuiType.ADVERTISEMENT or bool(rng.integers(0, 2)):
        content = build_background_content(rng, WINDOW_W, height,
                                           package=package)
        root.add_child(content)

    ago_rect = _TEMPLATES[spec.aui_type](root, rng, spec, mint, height)
    occupied = [ago_rect] if ago_rect is not None else []
    upo_rects = _add_upo(root, rng, spec, mint, occupied)

    labels: List[Tuple[str, Rect]] = []
    if ago_rect is not None:
        labels.append(("AGO", ago_rect))
    labels.extend(("UPO", r) for r in upo_rects)
    return ScreenState(
        root=root,
        fullscreen=spec.fullscreen,
        is_aui=True,
        label_boxes=labels,
        name=f"aui:{spec.aui_type.value}:{spec.index}",
    )


def build_non_aui_screen(
    rng: np.random.Generator,
    benign_close: bool = False,
    package: str = "com.example.app",
    id_policy: ResourceIdPolicy = ResourceIdPolicy.READABLE,
    fullscreen: bool = False,
) -> ScreenState:
    """An ordinary (non-AUI) screen.

    With ``benign_close`` the screen shows a dialog that *has* a small
    close button but no app-guided option — the paper's canonical
    false-positive bait (its project repo keeps a folder of these).
    """
    mint = _Minter(package, id_policy, rng)
    height = _window_height(fullscreen)
    root = ViewGroup(bounds=Rect(0, 0, WINDOW_W, height),
                     bg_color=PALETTE["white"])
    root.add_child(build_background_content(rng, WINDOW_W, height,
                                            package=package))
    if benign_close:
        _dim_scrim(root, rng, height)
        card = _dialog_card(root, rng, height)
        root.add_child(View(bounds=Rect(card.x + 18, card.y + 20,
                                        card.w - 36, 14),
                            text="whats new this week", text_size=11,
                            text_color=PALETTE["black"]))
        for i in range(3):
            root.add_child(View(bounds=Rect(card.x + 20, card.y + 52 + i * 20,
                                            (card.w - 40) * 0.85, 8),
                                bg_color=PALETTE["light_gray"]))
        # Two balanced, same-sized plain buttons: no asymmetry.
        bw = (card.w - 60) / 2
        for j, label in enumerate(("ok", "view")):
            root.add_child(View(
                bounds=Rect(card.x + 20 + j * (bw + 20), card.bottom - 54,
                            bw, 34),
                shape=Shape.ROUNDED, corner_radius=8,
                bg_color=PALETTE["near_white"],
                border_color=PALETTE["light_gray"], border_width=1,
                clickable=True, text=label, text_size=11,
                text_color=PALETTE["dark_gray"],
                resource_id=mint(f"btn_{label}"),
            ))
        size = float(rng.uniform(16, 24))
        root.add_child(View(
            bounds=Rect(card.right - size - 8, card.y + 8, size, size),
            shape=Shape.CIRCLE, bg_color=PALETTE["light_gray"],
            bg_alpha=0.9, icon="cross", icon_color=PALETTE["dark_gray"],
            clickable=True, role=SemanticRole.BENIGN_CLOSE,
            resource_id=mint("iv_close"),
        ))
    return ScreenState(
        root=root,
        fullscreen=fullscreen,
        is_aui=False,
        label_boxes=[],
        name="non_aui:benign_close" if benign_close else "non_aui:plain",
    )
