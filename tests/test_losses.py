"""Two-view semi-supervised objectives and soft-label post-processing."""

from __future__ import annotations

import numpy as np
import pytest

from lcgclab.data import AugmentConfig
from lcgclab.errors import ContractError, DimensionError, LabelError
from lcgclab.losses import (
    consistency_loss,
    distribution_alignment,
    ema_update,
    pseudo_label,
    sharpen,
    supervised_loss,
)
from lcgclab.kernels import softmax_rows
from lcgclab.model import init_mlp
from lcgclab.tensor import cross_entropy_terms

IDENTITY_AUG = AugmentConfig(sigma_weak=0.0, sigma_strong=0.0, mask_fraction=0.0)


class TestPseudoLabel:
    def test_confidence_oracle(self):
        """softmax([10, 0]) head prob = e^10/(e^10+1) = 0.9999546021312976."""
        batch = pseudo_label(softmax_rows(np.array([[10.0, 0.0]])), tau=0.5)
        np.testing.assert_allclose(batch.probs[0, 0], 0.9999546021312976, rtol=1e-13)
        assert batch.labels[0] == 1
        assert batch.mask[0]

    def test_threshold_keeps_boundary(self):
        """Rows whose confidence equals tau are retained."""
        probs = softmax_rows(np.array([[0.0, 0.0]]))  # confidence exactly 0.5
        batch = pseudo_label(probs, tau=0.5)
        assert batch.mask[0]
        batch = pseudo_label(probs, tau=0.5 + 1e-12)
        assert not batch.mask[0]

    def test_default_threshold_keeps_everything(self):
        rng = np.random.default_rng(0)
        batch = pseudo_label(softmax_rows(rng.normal(size=(50, 4))), tau=0.0)
        assert batch.mask.all()

    def test_labels_are_argmax_one_based(self):
        logits = np.array([[0.0, 3.0, 1.0], [5.0, 0.0, 0.0]])
        batch = pseudo_label(softmax_rows(logits), tau=0.0)
        np.testing.assert_array_equal(batch.labels, [2, 1])

    def test_rejects_bad_tau(self):
        with pytest.raises(ContractError):
            pseudo_label(np.zeros((1, 3)), tau=-0.1)
        with pytest.raises(ContractError):
            pseudo_label(np.zeros((1, 3)), tau=1.1)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (2, 3, 4)])
    def test_rejects_logits_that_are_not_n_by_c(self, shape):
        with pytest.raises(DimensionError, match="C >= 2"):
            pseudo_label(np.zeros(shape), tau=0.0)

    def test_takes_the_probs_as_given_and_runs_no_softmax(self, monkeypatch):
        """The probabilities are the caller's: no softmax kernel runs,
        they become the batch's ``probs`` as they are, and probabilities
        that are not (n, C >= 2) raise DimensionError."""
        import lcgclab.kernels as K

        def refuse(*args, **kw):
            raise AssertionError("pseudo_label ran a softmax")

        probs = softmax_rows(np.random.default_rng(3).normal(size=(6, 4)))
        monkeypatch.setattr(K, "softmax_rows", refuse)
        monkeypatch.setattr(K, "log_softmax_rows", refuse)
        batch = pseudo_label(probs, tau=0.3)
        assert batch.probs is probs
        np.testing.assert_array_equal(batch.labels, probs.argmax(axis=1) + 1)
        np.testing.assert_array_equal(batch.mask, probs.max(axis=1) >= 0.3)
        for shape in [(6,), (6, 1), (1, 6, 4)]:
            with pytest.raises(DimensionError, match="probabilities"):
                pseudo_label(np.full(shape, 0.5), tau=0.3)


_Z = np.zeros((3, 4))


@pytest.mark.parametrize(
    "lsm, target, weights, error, match",
    [
        (_Z, np.array([1, 2]), None, DimensionError, "expected 3 labels"),
        (_Z, np.array([0, 1, 2]), None, LabelError, "must lie in"),
        (_Z, np.array([1, 2, 5]), None, LabelError, "must lie in"),
        (_Z, np.full((3, 3), 1 / 3), None, DimensionError, "soft targets"),
        (_Z, np.full((4, 4), 0.25), None, DimensionError, "soft targets"),
        (_Z, np.array([[1.5, -0.5, 0, 0]] * 3), None, LabelError, "nonnegative"),
        (np.zeros((0, 4)), np.array([], dtype=np.int64), None, ContractError,
         "empty batch"),
        (_Z, np.array([1, 2, 3]), np.ones(2), DimensionError, "expected 3 weights"),
        (np.zeros(4), np.array([1]), None, DimensionError, "2-D"),
        (np.zeros((3, 1)), np.array([1, 1, 1]), None, DimensionError,
         "at least 2 classes"),
    ],
    ids=[
        "label-count", "label-below", "label-above", "soft-width",
        "soft-rows", "soft-negative", "empty", "weight-count", "1-d", "one-class",
    ],
)
def test_cross_entropy_terms_checks(lsm, target, weights, error, match):
    """The loss every step differentiates validates its plain-array
    arguments itself, with no tape in the way."""
    with pytest.raises(error, match=match):
        cross_entropy_terms(lsm, target, weights=weights)


class TestSupervisedLoss:
    def test_zero_logits_cost_ln_c(self):
        """A fresh model on zero inputs predicts uniformly: loss = ln C."""
        p = init_mlp((4, 6, 10), seed=0)
        loss = supervised_loss(p, np.zeros((3, 4)), np.array([1, 5, 10]))
        np.testing.assert_allclose(loss.item(), np.log(10.0), rtol=1e-13)

    def test_two_sample_oracle(self):
        """Identity-weight single layer, hand-computed 0.22009484928059775."""
        p = init_mlp((2, 6, 2), seed=0)
        # Overwrite with a deterministic linear map: logits = x.
        import lcgclab.model as M

        lin = M.ModelParams(dims=(2, 2), weights=[np.eye(2)], biases=[np.zeros(2)])
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        # mean of log(1 + e^-2) and log(1 + e^-1)
        loss = supervised_loss(lin, x, np.array([1, 2]))
        np.testing.assert_allclose(loss.item(), 0.22009484928059775, rtol=1e-13)


class TestConsistencyLoss:
    def test_identity_augmentation_hand_value(self):
        """With no augmentation noise, strong view equals input, so the
        loss is plain CE of the unlabeled logits against pseudo labels."""
        p = init_mlp((3, 5, 4), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        from lcgclab.model import logits_array
        from lcgclab.tensor import cross_entropy

        pseudo = pseudo_label(softmax_rows(logits_array(p, x)), tau=0.0)
        loss = consistency_loss(p, x, pseudo, IDENTITY_AUG, rng)
        expected = cross_entropy(logits_array(p, x), pseudo.labels).item()
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_all_rows_masked_gives_exact_zero(self):
        p = init_mlp((3, 5, 4), seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        pseudo = pseudo_label(np.full((5, 4), 0.25), tau=0.9)  # 0.25 < 0.9
        assert not pseudo.mask.any()
        loss = consistency_loss(p, x, pseudo, IDENTITY_AUG, rng)
        assert loss.item() == 0.0

    def test_mask_dilutes_by_full_batch(self):
        """One surviving row out of four: loss = CE(row) / 4."""
        p = init_mlp((3, 5, 4), seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        conf = np.array([[9.0, 0.0, 0.0, 0.0]])
        weak = np.vstack([conf, np.zeros((3, 4))])
        pseudo = pseudo_label(softmax_rows(weak), tau=0.9)
        assert pseudo.mask.sum() == 1
        loss = consistency_loss(p, x, pseudo, IDENTITY_AUG, rng)
        from lcgclab.model import logits_array
        from lcgclab.tensor import cross_entropy

        row_ce = cross_entropy(logits_array(p, x)[:1], pseudo.labels[:1]).item()
        np.testing.assert_allclose(loss.item(), row_ce / 4.0, rtol=1e-12)

    def test_row_count_mismatch_rejected(self):
        p = init_mlp((3, 5, 4), seed=7)
        rng = np.random.default_rng(8)
        pseudo = pseudo_label(np.full((3, 4), 0.25), tau=0.0)
        with pytest.raises(ContractError):
            consistency_loss(p, np.zeros((5, 3)), pseudo, IDENTITY_AUG, rng)


class TestDistributionAlignment:
    def test_hand_example(self):
        """q=[.5,.5], avg=[.75,.25], target=[.5,.5] -> [1/4, 3/4] before
        normalization is [1/3,1] i.e. normalized [0.25, 0.75]."""
        out = distribution_alignment(
            np.array([0.5, 0.5]),
            running_avg=np.array([0.75, 0.25]),
            target=np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)

    def test_matching_profile_is_identity(self):
        q = np.array([[0.2, 0.3, 0.5]])
        prof = np.array([0.1, 0.4, 0.5])
        out = distribution_alignment(q, prof, prof)
        np.testing.assert_allclose(out, q, rtol=1e-12)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(13)
        q = rng.dirichlet(np.ones(5), size=20)
        avg = rng.dirichlet(np.ones(5))
        tgt = rng.dirichlet(np.ones(5))
        out = distribution_alignment(q, avg, tgt)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-12)
        assert (out >= 0).all()

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            distribution_alignment(np.ones(3) / 3, np.ones(4) / 4, np.ones(3) / 3)


class TestSharpen:
    def test_hand_example(self):
        """[0.8, 0.2] at T=0.5 squares the odds: [16/17, 1/17]."""
        out = sharpen(np.array([0.8, 0.2]), temperature=0.5)
        np.testing.assert_allclose(out, [16 / 17, 1 / 17], rtol=1e-12)

    def test_temperature_one_is_identity(self):
        rng = np.random.default_rng(14)
        q = rng.dirichlet(np.ones(6), size=10)
        np.testing.assert_allclose(sharpen(q, 1.0), q, rtol=1e-12)

    def test_zeros_stay_zero(self):
        out = sharpen(np.array([0.0, 0.3, 0.7]), temperature=0.25)
        assert out[0] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-15)

    def test_low_temperature_approaches_argmax(self):
        out = sharpen(np.array([0.4, 0.6]), temperature=0.01)
        assert out[1] > 1 - 1e-10

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ContractError):
            sharpen(np.array([0.5, 0.5]), temperature=0.0)


class TestEmaUpdate:
    def test_convex_combination(self):
        avg = np.array([0.5, 0.5])
        batch = np.array([1.0, 0.0])
        out = ema_update(avg, batch, decay=0.9)
        np.testing.assert_allclose(out, [0.55, 0.45], rtol=1e-12)

    def test_decay_one_rejected(self):
        """decay = 1 would never incorporate data; the contract forbids it."""
        with pytest.raises(ContractError):
            ema_update(np.array([0.25, 0.75]), np.array([1.0, 0.0]), 1.0)

    def test_decay_zero_replaces(self):
        out = ema_update(np.array([0.25, 0.75]), np.array([0.6, 0.4]), 0.0)
        np.testing.assert_array_equal(out, [0.6, 0.4])
