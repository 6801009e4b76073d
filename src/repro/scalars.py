"""Scalar stand-ins for NumPy calls that are all overhead at size one.

The synthetic corpus and fleet builders (:mod:`repro.datagen`,
:func:`repro.android.resources.obfuscate_entry`) make tens of thousands
of single picks and clamps, and the Monkey
(:mod:`repro.android.monkey`) draws two uniform coordinates per tap.
``Generator.choice`` and ``Generator.uniform`` convert and validate
their arguments on every call and ``np.clip`` boxes a 0-d array, so at
size one they cost several times the draw itself.  The helpers here
make the *same* draw the NumPy call makes internally and give
``np.clip``'s exact result, so every generated tree and tap, and every
generator state after it, is bit-identical to the NumPy calls they
replace (``tests/test_scalars.py`` checks that against NumPy itself).

- A uniform pick is ``options[rng.integers(0, len(options))]``:
  ``choice`` draws ``integers(0, n, dtype=int64)`` and indexes.
- A weighted pick is ``bisect_right(cdf, rng.random())``: ``choice``
  draws one ``random()`` and ``searchsorted(side="right")`` on
  ``p.cumsum() / cdf[-1]``.  :func:`weights_cdf` builds that cdf once,
  at import time of the caller.
- A uniform float is ``low + (high - low) * rng.random()``: ``uniform``
  computes exactly that from one ``random()`` draw.

This module imports nothing from :mod:`repro`, so any layer can use it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


def pick(rng: np.random.Generator, options: Sequence[T]) -> T:
    """``rng.choice(options)``: one uniform pick, the same draw."""
    return options[rng.integers(0, len(options))]


def pick_many(rng: np.random.Generator, options: Sequence[T],
              size: int) -> List[T]:
    """``rng.choice(options, size=size)`` as a list: the same draws."""
    return [options[i] for i in rng.integers(0, len(options), size=size)]


def weights_cdf(weights: Sequence[float]) -> Tuple[float, ...]:
    """The cdf ``rng.choice(..., p=weights)`` searches, built as it
    builds it: ``p.cumsum()``, then divided by its last entry."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def pick_weighted(rng: np.random.Generator, options: Sequence[T],
                  cdf: Tuple[float, ...]) -> T:
    """``rng.choice(options, p=weights)`` with ``cdf = weights_cdf(weights)``:
    one weighted pick, the same draw."""
    return options[bisect_right(cdf, rng.random())]


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` for scalar bounds: the same
    draw, and the same errors for a negative or non-finite range."""
    low = float(low)
    span = float(high) - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    return low + span * rng.random()


def clip(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for one number, bit for bit.

    As in NumPy: a NaN bound is the result (``lo``'s first), a NaN
    ``x`` passes through, a bound replaces ``x`` only when strictly
    beyond it (so ``-0.0`` clipped at ``0.0`` stays ``-0.0``), and
    ``hi`` wins over ``lo`` when they cross.
    """
    if lo != lo:
        return float(lo)
    if hi != hi:
        return float(hi)
    if lo > x:
        x = lo
    if hi < x:
        x = hi
    return float(x)
