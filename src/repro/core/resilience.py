"""Resilience primitives for the DARPA serving path.

An always-on accessibility service cannot crash because one screenshot
failed: millions of supervised sessions mean every low-probability OS
fault happens constantly somewhere in the fleet.  This module provides
the three mechanisms the pipeline threads around its fallible
dependencies (see :mod:`repro.core.pipeline`):

- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  for transient screenshot failures, scheduled on the *simulated* clock
  so retried runs stay reproducible;
- :class:`CircuitBreaker` — a classic CLOSED → OPEN → HALF_OPEN state
  machine around the CNN detector: after ``failure_threshold``
  consecutive failures the breaker opens and the pipeline degrades to
  the cheap FraudDroid heuristic; after ``cooldown_ms`` it half-opens
  and lets one probe inference decide whether to close again;
- the per-screen watchdog deadline lives in the pipeline itself (it
  needs the analysis context), but its failure signal feeds the breaker
  here.

Everything is plain state + the simulated clock: no threads, no wall
time, no hidden nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.android.clock import SimulatedClock


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seeded jitter.

    ``max_attempts`` counts every try including the first; a policy of
    3 means one initial attempt plus at most two retries.
    """

    max_attempts: int = 3
    base_delay_ms: float = 50.0
    multiplier: float = 2.0
    max_delay_ms: float = 1000.0
    #: Uniform jitter added on top of the raw backoff, as a fraction of
    #: it — decorrelates retry bursts across a fleet without breaking
    #: determinism (the caller supplies the seeded RNG).
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")

    def delay_ms(self, attempt: int, rng=None) -> float:
        """Backoff scheduled after the ``attempt``-th failed try (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay_ms * self.multiplier ** (attempt - 1),
                  self.max_delay_ms)
        if rng is not None and self.jitter_frac > 0.0:
            raw *= 1.0 + self.jitter_frac * float(rng.random())
        return raw


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Signature of a breaker transition listener: ``(event, from_state,
#: to_state)``.  Events: ``opened``, ``half_opened``, ``closed``,
#: ``probe_success``, ``probe_failure``.
BreakerListener = Callable[[str, BreakerState, BreakerState], None]


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the simulated clock.

    CLOSED: calls pass through; ``failure_threshold`` consecutive
    failures trip it OPEN.  OPEN: :meth:`allow` is False (callers take
    their fallback path) until ``cooldown_ms`` elapses on the clock,
    after which the breaker reads HALF_OPEN.  HALF_OPEN: one probe call
    is allowed; success closes the breaker, failure re-opens it for
    another full cooldown.

    Every state transition — and the outcome of each half-open probe —
    is reported to the optional ``listener``, which the pipeline wires
    to ``darpa.resilience.*`` counters and tracer events so breaker
    flaps are visible in exported metrics, not just the final
    fallback count.  On a fault-free run no transition ever fires, so
    the listener (and the counters behind it) stay untouched.
    """

    def __init__(self, clock: SimulatedClock, failure_threshold: int = 3,
                 cooldown_ms: float = 5000.0,
                 listener: Optional[BreakerListener] = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_ms < 0:
            raise ValueError("cooldown cannot be negative")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.listener = listener
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms: Optional[float] = None
        #: Total CLOSED/HALF_OPEN -> OPEN transitions over the run.
        self.opens = 0

    def _notify(self, event: str, src: BreakerState,
                dst: BreakerState) -> None:
        if self.listener is not None:
            self.listener(event, src, dst)

    @property
    def state(self) -> BreakerState:
        """Current state; lazily performs the OPEN -> HALF_OPEN timeout."""
        if (self._state is BreakerState.OPEN
                and self._opened_at_ms is not None
                and self.clock.now_ms - self._opened_at_ms >= self.cooldown_ms):
            self._state = BreakerState.HALF_OPEN
            self._notify("half_opened", BreakerState.OPEN,
                         BreakerState.HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May the protected call run now?  (HALF_OPEN allows the probe.)"""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        prev = self.state
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED
        self._opened_at_ms = None
        if prev is BreakerState.HALF_OPEN:
            self._notify("probe_success", prev, BreakerState.CLOSED)
        if prev is not BreakerState.CLOSED:
            self._notify("closed", prev, BreakerState.CLOSED)

    def record_failure(self) -> bool:
        """Count one failure; returns True when it tripped the breaker."""
        state = self.state
        self._consecutive_failures += 1
        if (state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold):
            self._state = BreakerState.OPEN
            self._opened_at_ms = self.clock.now_ms
            self._consecutive_failures = 0
            self.opens += 1
            if state is BreakerState.HALF_OPEN:
                self._notify("probe_failure", state, BreakerState.OPEN)
            self._notify("opened", state, BreakerState.OPEN)
            return True
        return False
