"""DARPA runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.imaging.color import Color, PALETTE


@dataclass(frozen=True)
class DecorationStyle:
    """Visual style of decoration overlays.

    Defaults follow the paper: high-contrast strokes, green for the
    user-preferred option, red for the app-guided one, with a margin so
    the stroke rings the option instead of covering it.  Users may
    customize shape and color (Section IV-D).
    """

    upo_color: Color = field(default_factory=lambda: PALETTE["green"])
    ago_color: Color = field(default_factory=lambda: PALETTE["red"])
    stroke_width: int = 3
    margin: float = 4.0
    decorate_ago: bool = True


@dataclass(frozen=True)
class DarpaConfig:
    """End-to-end pipeline settings."""

    #: Cut-off time: a screen must stay quiet this long to be analyzed.
    #: 200 ms is the paper's optimum (Section VI-E) — and, it notes,
    #: roughly human reaction time.
    ct_ms: float = 200.0
    #: Detector confidence threshold at decode time.
    conf_threshold: float = 0.45
    #: Higher confidence bar for the screen-level "this is an AUI"
    #: verdict (decorations still draw every detection above
    #: ``conf_threshold``; only the flag/bypass decision uses this).
    flag_threshold: float = 0.85
    #: Draw decoration overlays (off = detect-and-log only, used by the
    #: overhead decomposition of Table VII).
    decorate: bool = True
    #: Auto-click the UPO instead of (only) decorating it.
    auto_bypass: bool = False
    #: Only analyze packages outside this allowlist (empty = analyze
    #: everything).  Mirrors the paper's "selectively running DARPA on
    #: less-trusted apps" overhead reduction.
    trusted_packages: tuple = ()
    #: Simulation accelerator: skip rasterizing screenshots (detectors
    #: that never read pixels, e.g. ground-truth oracles in the ct
    #: sweeps).  All perf accounting is unaffected.
    stub_screenshots: bool = False
    #: Entry capacity of the screen-fingerprint detection cache
    #: (:mod:`repro.core.screencache`); 0 disables caching.  The cache
    #: is also bypassed under ``stub_screenshots`` — stub frames carry
    #: no pixels to fingerprint.
    screen_cache_size: int = 64

    # -- resilience (see repro.core.resilience) -------------------------
    #: Attempts per settled screen when ``takeScreenshot`` fails
    #: transiently (1 = no retries).  Retries are scheduled on the
    #: simulated clock with exponential backoff + seeded jitter.
    retry_max_attempts: int = 3
    retry_base_delay_ms: float = 50.0
    retry_max_delay_ms: float = 1000.0
    retry_jitter_frac: float = 0.25
    #: Consecutive detector failures (crashes or blown deadlines) that
    #: open the circuit breaker, degrading detection to the FraudDroid
    #: heuristic until the cooldown's half-open probe succeeds.
    breaker_failure_threshold: int = 3
    breaker_cooldown_ms: float = 5000.0
    #: Degrade to the metadata heuristic while the breaker is open (off
    #: = analyses during an outage report no detections).
    fallback_to_heuristic: bool = True
    #: Per-screen watchdog budget for one inference, in simulated ms; an
    #: analysis whose detector reports a longer ``last_detect_ms`` is
    #: abandoned (counted as ``deadline_skips``).  0 disables.
    deadline_ms: float = 0.0
    #: Serve every analysis from the FraudDroid heuristic, skipping the
    #: cache and the CNN entirely.  This is the daemon's load-shedding
    #: lever (:mod:`repro.core.daemon`): a session whose screens cannot
    #: make the reaction budget through the inference queue degrades
    #: instead of being dropped.  Requires ``fallback_to_heuristic``.
    force_degraded: bool = False

    def __post_init__(self) -> None:
        if not self.ct_ms >= 0:
            raise ValueError("ct must be a non-negative number")
        if not 0.0 < self.conf_threshold < 1.0:
            raise ValueError("confidence threshold must be in (0, 1)")
        if self.screen_cache_size < 0:
            raise ValueError("screen cache size must be non-negative")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker cooldown must be non-negative")
        if self.deadline_ms < 0:
            raise ValueError("deadline must be non-negative")
        if self.force_degraded and not self.fallback_to_heuristic:
            raise ValueError(
                "force_degraded requires fallback_to_heuristic")
