"""Tests for the inference fast path (repro.vision.nn.infer).

The contract under test: a compiled InferencePlan computes the same
function as the training-mode layer stack in eval mode (up to BN-folding
float error), batched execution is *bit-identical* to per-image
execution, and stale plans are rebuilt whenever weights can change.
"""

import numpy as np
import pytest

from repro.vision import TinyYolo, YoloConfig
from repro.vision.nn import (
    BatchNorm2D,
    Conv2D,
    InferencePlan,
    LeakyReLU,
    MaxPool2D,
    Sequential,
    fold_batchnorm,
    fold_conv_bn,
)


@pytest.fixture(scope="module")
def small_config():
    return YoloConfig(input_w=24, input_h=24, channels=(8, 8, 8, 8))


@pytest.fixture(scope="module")
def model(small_config):
    return TinyYolo(small_config, seed=0)


def random_screens(n, seed=0, h=160, w=90):
    rng = np.random.default_rng(seed)
    return [rng.random((h, w, 3)) for _ in range(n)]


def warmed_batchnorm(channels, seed):
    """A BN layer with non-trivial running statistics."""
    bn = BatchNorm2D(channels)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        bn.forward(rng.normal(0.5, 2.0, (4, channels, 6, 6)).astype(np.float32),
                   training=True)
    bn.gamma.value = rng.normal(1.0, 0.2, channels).astype(np.float32)
    bn.beta.value = rng.normal(0.0, 0.2, channels).astype(np.float32)
    return bn


class TestFolding:
    def test_fold_conv_bn_matches_eval_composition(self):
        rng = np.random.default_rng(1)
        conv = Conv2D(4, 6, kernel=3, rng=rng)
        bn = warmed_batchnorm(6, seed=2)
        x = rng.normal(0, 1, (3, 4, 8, 8)).astype(np.float32)
        want = bn.forward(conv.forward(x), training=False)
        got = fold_conv_bn(conv, bn).forward(x)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_fold_creates_bias_when_absent(self):
        conv = Conv2D(2, 3, kernel=1, bias=False,
                      rng=np.random.default_rng(0))
        folded = fold_conv_bn(conv, warmed_batchnorm(3, seed=1))
        assert folded.bias is not None
        assert folded.bias.value.shape == (3,)

    def test_fold_batchnorm_rewrites_pairs_only(self):
        rng = np.random.default_rng(3)
        layers = [Conv2D(3, 4, kernel=3, rng=rng), warmed_batchnorm(4, seed=4),
                  LeakyReLU(0.1), MaxPool2D(2), Conv2D(4, 5, kernel=1, rng=rng)]
        folded = fold_batchnorm(layers)
        assert len(folded) == 4
        assert not any(isinstance(l, BatchNorm2D) for l in folded)
        # Unpaired layers pass through as the same objects.
        assert folded[1] is layers[2]
        assert folded[3] is layers[4]

    def test_original_layers_unmodified(self):
        rng = np.random.default_rng(5)
        conv = Conv2D(3, 4, kernel=3, rng=rng)
        before = conv.weight.value.copy()
        fold_conv_bn(conv, warmed_batchnorm(4, seed=6))
        np.testing.assert_array_equal(conv.weight.value, before)


class TestPlanEquivalence:
    def test_plan_matches_eval_forward(self, model, small_config):
        x = np.random.default_rng(7).normal(
            0, 1, (4, 3, 24, 24)).astype(np.float32)
        plan = InferencePlan([*model.backbone.layers, model.head])
        np.testing.assert_allclose(plan.forward(x),
                                   model.forward(x, training=False),
                                   atol=1e-4)

    def test_batched_bit_identical_to_per_image(self, model):
        x = np.random.default_rng(8).normal(
            0, 1, (6, 3, 24, 24)).astype(np.float32)
        plan = model.inference_plan()
        batched = plan.forward(x)
        singles = np.concatenate([plan.forward(x[i:i + 1]) for i in range(6)])
        np.testing.assert_array_equal(batched, singles)

    def test_varying_batch_sizes_share_per_image_scratch(self, model):
        plan = InferencePlan([*model.backbone.layers, model.head])
        x = np.random.default_rng(14).normal(
            0, 1, (5, 3, 24, 24)).astype(np.float32)
        for n in (3, 1, 5, 1, 3):
            batched = plan.forward(x[:n])
            singles = np.concatenate([plan.forward(x[i:i + 1])
                                      for i in range(n)])
            np.testing.assert_array_equal(batched, singles)
        n_conv = sum(isinstance(l, Conv2D) for l in plan.layers)
        # One scratch entry per (step, image shape), whatever the batch.
        for scratch in (plan._pads, plan._cols, plan._outs, plan._tmps):
            assert all(len(shape) == 3 for _, shape in scratch)
            assert len({idx for idx, _ in scratch}) == len(scratch)
        assert len(plan._outs) == n_conv
        # Only the pooled outputs are batch-sized: batches 1, 3 and 5.
        assert len(plan._pools) == 3 * n_conv

    def test_buffer_reuse_is_consistent_across_calls(self, model):
        x = np.random.default_rng(9).normal(
            0, 1, (2, 3, 24, 24)).astype(np.float32)
        plan = model.inference_plan()
        first = plan.forward(x)
        again = plan.forward(x)
        np.testing.assert_array_equal(first, again)
        # The returned array is a fresh copy, not a view of scratch.
        plan.forward(np.zeros_like(x))
        np.testing.assert_array_equal(first, again)

    def test_detect_screens_matches_detect_screen(self, model):
        screens = random_screens(5, seed=10)
        batched = model.detect_screens(screens)
        singles = [model.detect_screen(s) for s in screens]
        assert batched == singles

    def test_detect_screens_empty_input(self, model):
        assert model.detect_screens([]) == []


class TestPlanLifecycle:
    def test_training_forward_invalidates_plan(self, small_config):
        model = TinyYolo(small_config, seed=1)
        stale = model.inference_plan()
        x = np.random.default_rng(11).normal(
            0, 1, (2, 3, 24, 24)).astype(np.float32)
        model.forward(x, training=True)
        assert model.inference_plan() is not stale

    def test_load_state_dict_invalidates_plan(self, small_config):
        model = TinyYolo(small_config, seed=1)
        other = TinyYolo(small_config, seed=2)
        x = np.random.default_rng(12).normal(
            0, 1, (1, 3, 24, 24)).astype(np.float32)
        before = model.predict_raw(x)
        model.load_state_dict(other.state_dict())
        after = model.predict_raw(x)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after, other.predict_raw(x), atol=1e-6)

    def test_plan_survives_pickling_via_model(self, small_config):
        import pickle
        model = TinyYolo(small_config, seed=1)
        model.inference_plan()  # built, then dropped by __getstate__
        clone = pickle.loads(pickle.dumps(model))
        x = np.random.default_rng(13).normal(
            0, 1, (2, 3, 24, 24)).astype(np.float32)
        np.testing.assert_array_equal(clone.predict_raw(x),
                                      model.predict_raw(x))
