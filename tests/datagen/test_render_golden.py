"""Pixel golden for the screenshot path.

Pins the raw float32 bytes of a fixed set of seed-0 corpus screenshots,
and their screen-cache fingerprints, to sha256 digests.  Any change to
the renderer, pseudo-text, sensor noise or fingerprint arithmetic that
moves a single bit shows up here.  The set covers AUI and non-AUI
screens, noisy and noiseless renders, full-screen and barred layouts.

Regenerate (only for an intended pixel change, and say why in the
change log)::

    PYTHONPATH=src python tests/datagen/test_render_golden.py
"""

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.screencache import ScreenFingerprintCache
from repro.datagen import build_corpus
from repro.datagen.corpus import render_state

#: (name, digest of the float32 pixel bytes, digest of the fingerprint).
GOLDEN: Dict[str, Tuple[str, str]] = {
    "aui-0-noise-0": (
        "aad991325470b56ebbf54cb1191ab76bf45cb04db10e42904b78a7b644c117e4",
        "7d3f871786e97702699154996803f7b307efde66de85b9485db42b76afaafbda",
    ),
    "aui-1-noise-1": (
        "4593c197c9815ec9d119103c6e81be7bc9c9a5a5f12742c6f2548166f4058477",
        "24b91d7397b8ddb185f92f3996421b431e0398a5b3efdf461491bcce81ae8e3d",
    ),
    "aui-2-noise-2": (
        "39b8478f0216f75aa95a2f8d974d74faee409c3e8eb531ae25bbf964d7f071c5",
        "4141c5200b9277edb61f120368cb093b6a31f59b41ef8b8a444d14cb966f9894",
    ),
    "aui-3-noise-3": (
        "6a06ca790c69bef1bd9c5fd5ff3fc5f22a2345318b19e6393f753d821d2d9202",
        "bb6f13e7502da88d45b8755d4b597fa7c4db84902c300c139df7bb57dfa9e931",
    ),
    "aui-4-noise-4": (
        "114d615a92cf5c25c8ce68b20cb00bd982aeef8a1ee0f743763be60e3af6f207",
        "96d263b6a5c6378a65ffff8314238d4f35fe10cd928e6b5c0bb81ea2c9127626",
    ),
    "aui-5-noise-5": (
        "c5749923624537e60944fcb42431855b032eb2bb7516b3e58447845b11347acb",
        "380de30359b4a7a09304cfb475ea8fbee54b811a5bafa75cfa7106408b72ba09",
    ),
    "neg-0-noise-100": (
        "988b3a4ae244b0cb86102c731bd1d27a334a25a2bcfa233ddc36201aa33f5b17",
        "60993a0b77fe6157a126d79b5d235cc20cbf688f33837afd4fc39ff5569db0a1",
    ),
    "neg-1-noiseless": (
        "4813d31760299e6c58787d491ba3096f1bf8a89e4bc76b4b26189613c0d1d45f",
        "0da0896a23bdb3d42e40471c664f2b4d6d760bba5503c69cf4daff8ad56f1982",
    ),
}


def _cases() -> List[Tuple[str, object, object]]:
    """(name, screen state, noise seed) for the pinned screens."""
    corpus = build_corpus(seed=0, n_negatives=3)
    cases = [(f"aui-{i}-noise-{i}", corpus.samples[i].screen, i)
             for i in range(6)]
    cases.append(("neg-0-noise-100", corpus.negatives[0], 100))
    cases.append(("neg-1-noiseless", corpus.negatives[1], None))
    return cases


def render_digests() -> Dict[str, Tuple[str, str]]:
    cache = ScreenFingerprintCache()
    out = {}
    for name, state, noise_seed in _cases():
        pixels, _ = render_state(state, noise_seed=noise_seed)
        assert pixels.dtype == np.float32
        out[name] = (
            hashlib.sha256(np.ascontiguousarray(pixels).tobytes()).hexdigest(),
            hashlib.sha256(cache.fingerprint(pixels)).hexdigest(),
        )
    return out


@pytest.fixture(scope="module")
def digests():
    return render_digests()


def test_golden_covers_every_case(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pixels_match_golden(digests, name):
    assert digests[name][0] == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_matches_golden(digests, name):
    assert digests[name][1] == GOLDEN[name][1]


if __name__ == "__main__":
    print(json.dumps(render_digests(), indent=4, sort_keys=True))
