"""The one sanctioned wall-clock in the codebase.

Everything that *behaves* — the pipeline, the fault injector, the
telemetry algebra — runs on :class:`repro.android.clock.SimulatedClock`
so runs are a pure function of seeds.  But two needs are genuinely
wall-clock shaped and must never touch the sim clock:

- user-facing progress lines (``repro train``'s elapsed-seconds);
- real-hardware micro-timing (a detector reporting how long its own
  numpy forward actually took).

Those call sites route through this module, and its one clock read in
:func:`monotonic_ms` is the only line of ``src/`` exempt from
darpalint's DL001 wall-clock rule (an inline
``# darpalint: disable=DL001`` marker).  Keeping the escape hatch to a
single line of a leaf file is what keeps the rule meaningful: a new
``time.time()`` anywhere else is a lint failure, not a judgement call.

The clock is monotonic (``perf_counter``), so progress arithmetic can
never go backwards under NTP steps the way ``time.time()`` deltas can.
"""

from __future__ import annotations

import time


def monotonic_ms() -> float:
    """Milliseconds on a monotonic wall clock (arbitrary epoch)."""
    # The sanctioned wall-clock read: progress lines and real-hardware
    # timing only, never simulation state.
    return time.perf_counter() * 1000.0  # darpalint: disable=DL001


class Stopwatch:
    """Elapsed real time since construction (or the last ``restart``)."""

    __slots__ = ("_start_ms",)

    def __init__(self) -> None:
        self._start_ms = monotonic_ms()

    def restart(self) -> None:
        self._start_ms = monotonic_ms()

    def elapsed_ms(self) -> float:
        return monotonic_ms() - self._start_ms

    def elapsed_s(self) -> float:
        return self.elapsed_ms() / 1000.0


__all__ = ["Stopwatch", "monotonic_ms"]
