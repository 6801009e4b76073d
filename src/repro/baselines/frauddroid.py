"""A FraudDroid-like heuristic AUI detector (paper Section VI-C).

FraudDroid's AdViewDetector identifies ad views from UI metadata —
resource-id strings plus size/placement features.  The module is closed
source, so the paper re-implements it and extends the string lexicon
with AUI-related ids.  We do the same against our simulated ``adb``
hierarchy dumps.

The detector's published failure mode is structural, not a tuning
artifact: it depends on *readable resource ids*, and most shipped apps
obfuscate or dynamically generate them (`repro.android.resources`), so
its recall collapses to the ~14% of Table VI while DARPA's CV pipeline
is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geometry.nms import ScoredBox
from repro.geometry.rect import Rect
from repro.android.adb import NodeInfo, dump_view_hierarchy

#: Resource-id substrings associated with user-preferred options.  The
#: paper "enrich[es] the UI string features by adding resource ids
#: corresponding to the AUIs" — this is that curated list.
UPO_ID_LEXICON: Tuple[str, ...] = (
    "close", "skip", "cancel", "dismiss", "exit", "later", "deny",
    "refuse", "no_thanks", "negative",
)

#: Resource-id substrings associated with app-guided options and ad
#: containers.
AGO_ID_LEXICON: Tuple[str, ...] = (
    "ad_", "_ad", "ads", "banner", "splash", "promo", "action",
    "subscribe", "download", "upgrade", "open", "confirm", "positive",
    "red_packet", "reward", "guide",
)


@dataclass(frozen=True)
class FraudDroidConfig:
    """Placement-feature thresholds (FraudDroid-style heuristics)."""

    #: A UPO candidate must be small...
    upo_max_area_frac: float = 0.012
    #: ...and near an edge/corner of the screen.
    upo_edge_margin_frac: float = 0.22
    #: An AGO candidate must be large...
    ago_min_area_frac: float = 0.04
    #: ...and roughly centered horizontally.
    ago_center_band_frac: float = 0.3
    #: Minimum clickable-view count for the screen to be dialog-like.
    min_clickable: int = 1


class FraudDroidDetector:
    """Metadata-only AUI detection over ``adb`` hierarchy dumps."""

    def __init__(self, config: Optional[FraudDroidConfig] = None,
                 screen_w: int = 360, screen_h: int = 640):
        self.config = config or FraudDroidConfig()
        self.screen_w = screen_w
        self.screen_h = screen_h

    # -- string features ------------------------------------------------

    @staticmethod
    def _matches(entry: str, lexicon: Sequence[str]) -> bool:
        entry = entry.lower()
        return bool(entry) and any(key in entry for key in lexicon)

    # -- placement features ----------------------------------------------

    def _is_upo_shaped(self, rect: Rect) -> bool:
        cfg = self.config
        screen_area = self.screen_w * self.screen_h
        if rect.area > cfg.upo_max_area_frac * screen_area or rect.is_empty():
            return False
        cx, cy = rect.center
        near_x = min(cx, self.screen_w - cx) < cfg.upo_edge_margin_frac * self.screen_w
        near_y = min(cy, self.screen_h - cy) < cfg.upo_edge_margin_frac * self.screen_h
        return near_x or near_y

    def _is_ago_shaped(self, rect: Rect) -> bool:
        cfg = self.config
        screen_area = self.screen_w * self.screen_h
        if rect.area < cfg.ago_min_area_frac * screen_area:
            return False
        cx, _ = rect.center
        return abs(cx - self.screen_w / 2) < cfg.ago_center_band_frac * self.screen_w

    # -- detection -------------------------------------------------------------

    def detect_nodes(self, nodes: Sequence[NodeInfo]) -> List[ScoredBox]:
        """Flag AGO/UPO candidates on one hierarchy dump.

        A node is flagged only when BOTH its resource-id string matches
        the lexicon AND its placement features agree — the conjunction
        FraudDroid uses to keep precision high.  Obfuscated or dynamic
        ids fail the string test, which is exactly the coverage collapse
        the paper measures.
        """
        detections: List[ScoredBox] = []
        clickables = [n for n in nodes if n.clickable]
        if len(clickables) < self.config.min_clickable:
            return detections
        for node in clickables:
            entry = node.resource_entry
            if self._matches(entry, UPO_ID_LEXICON) and self._is_upo_shaped(node.bounds):
                detections.append(ScoredBox(rect=node.bounds, label="UPO", score=0.9))
            elif self._matches(entry, AGO_ID_LEXICON) and self._is_ago_shaped(node.bounds):
                detections.append(ScoredBox(rect=node.bounds, label="AGO", score=0.9))
        return detections

    def screen_is_aui(self, nodes: Sequence[NodeInfo]) -> bool:
        """Screen-level verdict: any UPO flagged (Table VI counting)."""
        return any(d.label == "UPO" for d in self.detect_nodes(nodes))


class FraudDroidScreenDetector:
    """Adapts the metadata heuristic to the pipeline's ``Detector``
    protocol, for graceful degradation.

    While the CNN's circuit breaker is open (:mod:`repro.core.resilience`)
    the pipeline still needs *some* screen verdict; this adapter answers
    ``detect_screen`` by dumping the foreground app's view hierarchy and
    running :class:`FraudDroidDetector` over it — the screenshot pixels
    are ignored, which is exactly why the heuristic survives detector
    outages (and why its recall is the degraded ~14% of Table VI rather
    than DARPA's).
    """

    def __init__(self, device, config: Optional[FraudDroidConfig] = None):
        self.device = device
        self.inner = FraudDroidDetector(
            config,
            screen_w=device.screen.width,
            screen_h=device.screen.height,
        )
        #: Hierarchy nodes examined by the most recent pass — the
        #: heuristic's workload unit, surfaced so the tracing layer can
        #: attach it to ``fallback`` spans.
        self.last_node_count = 0

    def detect_screen(self, screen_image,
                      conf_threshold: Optional[float] = None
                      ) -> List[ScoredBox]:
        top = self.device.window_manager.top_app_window()
        nodes = dump_view_hierarchy(
            self.device.window_manager,
            package=top.package if top is not None else None,
        )
        self.last_node_count = len(nodes)
        detections = self.inner.detect_nodes(nodes)
        if conf_threshold is not None:
            detections = [d for d in detections if d.score >= conf_threshold]
        return detections
