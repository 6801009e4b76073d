"""Corpus assembly: the synthetic ``D_app`` and ``D_aui``.

``build_app_dataset`` mints 632 app profiles spanning the paper's
categories with realistic resource-id naming policies (most real apps
ship ProGuard-obfuscated, which is what defeats FraudDroid in Table VI).
``build_corpus`` deals the 1,072 quota-matched AUI sample specs across
those apps, attaches template-built screens, and adds a pool of non-AUI
screens for false-positive and runtime evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.android.apps import ScreenState
from repro.android.resources import ResourceIdPolicy
from repro.android.window import Screen, WindowManager
from repro.android.renderer import render_screen
from repro.datagen.specs import AuiType, SampleSpec, make_sample_specs
from repro.datagen.templates import build_aui_screen, build_non_aui_screen
from repro.scalars import pick_weighted, weights_cdf

#: Mi-Store-leaderboard-like category mix for D_app.
APP_CATEGORIES: Tuple[Tuple[str, float], ...] = (
    ("shopping", 0.14),
    ("social", 0.13),
    ("video", 0.12),
    ("games", 0.12),
    ("utilities", 0.11),
    ("news", 0.09),
    ("finance", 0.08),
    ("education", 0.08),
    ("travel", 0.07),
    ("health", 0.06),
)

#: Resource-id policy mix.  The paper blames FraudDroid's 14.4% recall
#: on obfuscated or dynamically-generated ids; most shipped APKs are
#: ProGuard/R8-processed, so readable ids are the minority.
ID_POLICY_MIX: Tuple[Tuple[ResourceIdPolicy, float], ...] = (
    (ResourceIdPolicy.READABLE, 0.18),
    (ResourceIdPolicy.OBFUSCATED, 0.57),
    (ResourceIdPolicy.DYNAMIC, 0.25),
)


def _mix_cdf(mix: Tuple[Tuple[object, float], ...]) -> Tuple[float, ...]:
    """Cdf of a mix's weights, normalised to sum to one first."""
    p = np.array([w for _, w in mix])
    return weights_cdf(p / p.sum())


_CATEGORIES = tuple(c for c, _ in APP_CATEGORIES)
_CATEGORY_CDF = _mix_cdf(APP_CATEGORIES)
_POLICIES = tuple(p for p, _ in ID_POLICY_MIX)
_POLICY_CDF = _mix_cdf(ID_POLICY_MIX)

N_APPS = 632
#: Screenshot provenance (Section III-A): 7,884 of 8,855 raw shots came
#: from Monkey runs, 971 from huaban.com.
FRACTION_FROM_MONKEY = 7884 / 8855


@dataclass(frozen=True)
class AppProfile:
    """One entry of the simulated ``D_app``."""

    package: str
    category: str
    id_policy: ResourceIdPolicy
    from_google_play: bool


@dataclass
class AuiSample:
    """One labeled AUI screenshot of ``D_aui`` (lazily rendered)."""

    spec: SampleSpec
    app: AppProfile
    source: str  # "monkey" | "huaban"
    _screen: Optional[ScreenState] = field(default=None, repr=False)

    @property
    def screen(self) -> ScreenState:
        if self._screen is None:
            self._screen = build_aui_screen(
                self.spec, package=self.app.package,
                id_policy=self.app.id_policy,
            )
        return self._screen

    @property
    def aui_type(self) -> AuiType:
        return self.spec.aui_type


def render_state(
    state: ScreenState,
    screen: Optional[Screen] = None,
    noise_seed: Optional[int] = None,
) -> Tuple[np.ndarray, List[Tuple[str, Rect]]]:
    """Rasterize a screen state; labels are returned in screen coords.

    This is the exact pipeline a runtime screenshot goes through, so
    training images and deployment images share their distribution.
    """
    screen = screen or Screen()
    wm = WindowManager(screen)
    window = wm.attach_app_window(state.root, "com.dataset.render",
                                  fullscreen=state.fullscreen)
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    canvas = render_screen(wm, noise_rng=rng)
    offset = window.offset
    labels = [(role, rect.offset_by(offset)) for role, rect in state.label_boxes]
    return canvas.pixels, labels


@dataclass
class Corpus:
    """The assembled datasets: D_app, D_aui, and evaluation negatives."""

    apps: List[AppProfile]
    samples: List[AuiSample]
    negatives: List[ScreenState]
    seed: int

    def type_distribution(self) -> Dict[AuiType, int]:
        """Regenerates Table I."""
        counts = {t: 0 for t in AuiType}
        for sample in self.samples:
            counts[sample.aui_type] += 1
        return counts

    def box_totals(self) -> Tuple[int, int]:
        """(AGO boxes, UPO boxes) across the corpus (Table II totals)."""
        ago = sum(1 for s in self.samples if s.spec.has_ago)
        upo = sum(s.spec.n_upo for s in self.samples)
        return ago, upo

    def layout_statistics(self) -> Dict[str, float]:
        """Section III-A: central-AGO and corner-UPO fractions."""
        with_ago = [s for s in self.samples if s.spec.has_ago]
        with_upo = [s for s in self.samples if s.spec.n_upo > 0]
        return {
            "ago_central": sum(s.spec.ago_central for s in with_ago) / len(with_ago),
            "upo_corner": sum(s.spec.upo_corner for s in with_upo) / len(with_upo),
            "first_party": sum(s.spec.first_party for s in self.samples) / len(self.samples),
        }


def build_app_dataset(seed: int = 0, n_apps: int = N_APPS) -> List[AppProfile]:
    """Mint the simulated ``D_app`` deterministically."""
    rng = np.random.default_rng(seed)
    apps = []
    for i in range(n_apps):
        category = pick_weighted(rng, _CATEGORIES, _CATEGORY_CDF)
        policy = pick_weighted(rng, _POLICIES, _POLICY_CDF)
        apps.append(
            AppProfile(
                package=f"com.{category}.app{i:03d}",
                category=category,
                id_policy=policy,
                # Mi-Store apps are mostly outside Google Play.
                from_google_play=bool(rng.random() < 0.2),
            )
        )
    return apps


def build_corpus(seed: int = 0, n_negatives: int = 400) -> Corpus:
    """Assemble the full synthetic corpus.

    Screens are built lazily (first access to ``sample.screen``), so
    corpus construction itself is instant and statistics-only consumers
    (Table I/II benches) never pay for view-tree building.
    """
    rng = np.random.default_rng(seed + 1)
    apps = build_app_dataset(seed)
    specs = make_sample_specs(seed)
    n_monkey = round(FRACTION_FROM_MONKEY * len(specs))
    sources = ["monkey"] * n_monkey + ["huaban"] * (len(specs) - n_monkey)
    rng.shuffle(sources)
    samples = [
        AuiSample(spec=spec, app=apps[int(rng.integers(0, len(apps)))],
                  source=sources[i])
        for i, spec in enumerate(specs)
    ]
    negatives: List[ScreenState] = []
    for i in range(n_negatives):
        benign = i % 3 == 0  # every third negative carries a close button
        negatives.append(
            build_non_aui_screen(
                rng, benign_close=benign,
                package=apps[int(rng.integers(0, len(apps)))].package,
                fullscreen=bool(rng.integers(0, 2)),
            )
        )
    return Corpus(apps=apps, samples=samples, negatives=negatives, seed=seed)
