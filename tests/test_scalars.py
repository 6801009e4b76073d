"""repro.scalars against the NumPy calls it stands in for.

Each pick must return what ``Generator.choice`` returns and leave the
bit generator in the same state, for every bit generator NumPy ships;
``uniform`` must return ``Generator.uniform``'s float bit for bit;
``clip`` must return ``np.clip``'s float bit for bit, NaN and signed
zero included.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scalars import (
    clip,
    pick,
    pick_many,
    pick_weighted,
    uniform,
    weights_cdf,
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _twins(bit_generator, seed, warm):
    """Two generators in the same state, ``warm`` draws past the seed
    (so the 32-bit buffer of PCG64/SFC64/Philox may be half used)."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(0, 3, size=warm)
        pair.append(rng)
    return pair


generators = st.sampled_from(BIT_GENERATORS)
seeds = st.integers(0, 2**32 - 1)
warms = st.integers(0, 3)
# choice stores string options in a fixed-width array, which drops
# trailing NULs; the generators' options hold none.
options = st.lists(st.text(alphabet="abc xyz", max_size=4), min_size=1,
                   max_size=40).map(tuple)


@settings(max_examples=300, deadline=None)
@given(generators, seeds, warms, options, st.integers(1, 4))
def test_pick_is_choice(bit_generator, seed, warm, opts, n_draws):
    ours, numpy_rng = _twins(bit_generator, seed, warm)
    for _ in range(n_draws):
        assert pick(ours, opts) == numpy_rng.choice(opts)
    assert _same_state(ours.bit_generator.state, numpy_rng.bit_generator.state)


@settings(max_examples=200, deadline=None)
@given(generators, seeds, warms, options, st.integers(1, 8))
def test_pick_many_is_choice_with_size(bit_generator, seed, warm, opts, size):
    ours, numpy_rng = _twins(bit_generator, seed, warm)
    assert pick_many(ours, opts, size) == numpy_rng.choice(opts, size=size).tolist()
    assert _same_state(ours.bit_generator.state, numpy_rng.bit_generator.state)


weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=40,
).filter(lambda w: sum(w) > 0).map(lambda w: tuple(np.array(w) / np.sum(w)))


@settings(max_examples=300, deadline=None)
@given(generators, seeds, warms, weights, st.integers(1, 4))
def test_pick_weighted_is_choice_with_p(bit_generator, seed, warm, p, n_draws):
    opts = tuple(range(len(p)))
    cdf = weights_cdf(p)
    ours, numpy_rng = _twins(bit_generator, seed, warm)
    for _ in range(n_draws):
        assert pick_weighted(ours, opts, cdf) == numpy_rng.choice(len(p), p=p)
    assert _same_state(ours.bit_generator.state, numpy_rng.bit_generator.state)


def test_weights_cdf_takes_unnormalised_weights_as_choice_does():
    # choice only checks that p sums to one within a tolerance; the
    # cdf it searches is renormalised by its last entry either way.
    p = [0.72, 0.16, 0.12]
    for seed in range(200):
        ours, numpy_rng = _twins(np.random.PCG64, seed, 0)
        assert (pick_weighted(ours, "abc", weights_cdf(p))
                == "abc"[numpy_rng.choice(3, p=p)])


def test_weighted_pick_never_runs_off_the_cdf():
    # Ten weights of 0.1 sum to 1 - 2**-53: like choice, the cdf is
    # divided by its last entry, so the largest draw below one lands on
    # the last option instead of past it.
    class LargestDraw:
        def random(self):
            return 1.0 - 2.0**-53

    p = (0.1,) * 10
    assert np.cumsum(p)[-1] == 1.0 - 2.0**-53
    assert weights_cdf(p)[-1] == 1.0
    assert pick_weighted(LargestDraw(), tuple(range(10)), weights_cdf(p)) == 9


def _bits(value: float) -> bytes:
    """The IEEE-754 bytes (``float.hex`` prints every NaN as ``nan``)."""
    return struct.pack("<d", value)


NANS = tuple(struct.unpack("<d", struct.pack("<Q", b))[0]
             for b in (0x7FF8000000000001, 0xFFF8000000000002))
SPECIAL = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 2.0)
scalars = st.one_of(st.sampled_from(SPECIAL + NANS),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(-10, 10))


bounds = st.one_of(st.integers(-1000, 1000),
                   st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(generators, seeds, warms, bounds, bounds, st.integers(1, 4))
def test_uniform_is_generator_uniform(bit_generator, seed, warm, low, high,
                                      n_draws):
    low, high = min(low, high), max(low, high)
    ours, numpy_rng = _twins(bit_generator, seed, warm)
    for _ in range(n_draws):
        got = uniform(ours, low, high)
        want = float(numpy_rng.uniform(low, high))
        assert struct.pack("<d", got) == struct.pack("<d", want)
    assert _same_state(ours.bit_generator.state, numpy_rng.bit_generator.state)


def test_uniform_rejects_what_numpy_rejects():
    rng = np.random.default_rng(0)
    for low, high, error in ((0, -1, ValueError),
                             (0, math.inf, OverflowError),
                             (math.nan, 1, OverflowError),
                             (-1e308, 1e308, OverflowError)):
        with pytest.raises(error):
            rng.uniform(low, high)
        with pytest.raises(error):
            uniform(rng, low, high)


@settings(max_examples=1000, deadline=None)
@given(scalars, scalars, scalars)
def test_clip_is_np_clip_bitwise(x, lo, hi):
    expected = float(np.clip(x, lo, hi))
    got = clip(x, lo, hi)
    assert type(got) is float
    assert got.hex() == expected.hex()
    assert _bits(got) == _bits(expected)


def test_clip_signed_zero_and_nan_cases():
    for x, lo, hi in ((-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (1.0, 0.0, -0.0),
                      (math.nan, 0.0, 1.0), (0.5, math.nan, 1.0),
                      (0.5, 0.0, math.nan), (3.0, 2.0, 1.0)) + tuple(
                          (a, b, c) for a in NANS for b in NANS for c in NANS):
        assert _bits(clip(x, lo, hi)) == _bits(float(np.clip(x, lo, hi)))


def test_clip_of_float32_channels():
    values = np.array([-0.0, -1e-9, 0.25, 1.0000001, np.nan, 7.0],
                      dtype=np.float32)
    for v in values:
        assert _bits(clip(v, 0.0, 1.0)) == _bits(float(np.clip(v, 0.0, 1.0)))
