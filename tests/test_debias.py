"""Baseline-logit refinement, gradient projection, training, attribution."""

from __future__ import annotations

import numpy as np
import pytest

from lcgclab.data import AugmentConfig, LongTailSpec, synthesize
from lcgclab.debias import (
    BASELINE_COLORS,
    GradientVector,
    LCGCConfig,
    TrainSettings,
    TrainState,
    baseline_logits,
    evaluate,
    grad_b,
    grad_d,
    integrated_gradients,
    kl_consistency_loss,
    lcgc_combine,
    make_baseline,
    run_training,
    train_step,
    verify_theorem1,
)
from lcgclab.errors import (
    ContractError,
    DimensionError,
    LabelError,
    TrainingDiverged,
)
from lcgclab.losses import pseudo_label
from lcgclab.model import ModelParams, init_mlp, logits_array
from lcgclab.tensor import (
    Tape,
    Tensor,
    backward,
    finite_diff_grad,
    flatten_grads,
    zero_grads,
)


def small_spec(**kw):
    base = dict(
        classes=4,
        dim=8,
        n_max_labeled=40,
        n_max_unlabeled=60,
        gamma_labeled=10.0,
        gamma_unlabeled=10.0,
        test_per_class=25,
        seed=2,
    )
    base.update(kw)
    return LongTailSpec(**base)


def small_settings(**kw):
    base = dict(steps=5, batch_size=8, mu=2, lr=0.05)
    base.update(kw)
    return TrainSettings(**base)


def generic_net(dims, seed, wscale=0.5, bscale=0.3):
    """A net at a generic point: random weights AND nonzero biases.

    Freshly initialized nets have zero biases, which puts the refinement
    KL exactly at its minimum for the black probe (the probe's logits
    are identically zero there), a degenerate point for derivative
    checks.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(
            Tensor(rng.normal(scale=wscale, size=(fan_in, fan_out)),
                   requires_grad=True)
        )
        biases.append(
            Tensor(rng.normal(scale=bscale, size=fan_out), requires_grad=True)
        )
    return ModelParams(dims=tuple(dims), weights=weights, biases=biases)


class TestBaselines:
    def test_palette_vectors(self):
        d, s = 6, 2.0
        np.testing.assert_array_equal(
            make_baseline("black", d, s).vector, np.zeros(6)
        )
        np.testing.assert_array_equal(
            make_baseline("white", d, s).vector, np.full(6, 2.0)
        )
        np.testing.assert_array_equal(
            make_baseline("gray", d, s).vector, np.full(6, 1.0)
        )
        np.testing.assert_array_equal(
            make_baseline("red", d, s).vector, [2, 2, 0, 0, 0, 0]
        )
        np.testing.assert_array_equal(
            make_baseline("green", d, s).vector, [0, 0, 2, 2, 0, 0]
        )
        np.testing.assert_array_equal(
            make_baseline("blue", d, s).vector, [0, 0, 0, 0, 2, 2]
        )

    def test_primaries_cover_all_coordinates(self):
        d = 7  # not divisible by three
        total = sum(
            make_baseline(c, d, 1.0).vector for c in ("red", "green", "blue")
        )
        np.testing.assert_array_equal(total, np.ones(7))

    def test_unknown_color_rejected(self):
        with pytest.raises(ContractError):
            make_baseline("purple", 4, 1.0)
        assert set(BASELINE_COLORS) == {
            "red", "green", "blue", "gray", "white", "black"
        }

    def test_black_probe_is_silent_at_init(self):
        """Zero biases + zero input = zero logits: no bias estimate."""
        p = init_mlp((8, 16, 4), seed=0)
        b = make_baseline("black", 8, 3.0)
        np.testing.assert_array_equal(baseline_logits(p, b), np.zeros(4))


class TestRefinement:
    """Test-time refinement, through its one path: ``evaluate``."""

    def test_refine_can_flip_the_argmax(self):
        """A head-biased logit row flips to the tail after subtraction."""
        p = ModelParams(
            dims=(2, 2),
            weights=[Tensor(np.eye(2), requires_grad=True)],
            biases=[Tensor(np.array([1.0, 0.0]), requires_grad=True)],
        )
        b = make_baseline("black", 2, 1.0)  # probe logits = biases
        x, y = np.array([[0.9, 1.0], [2.0, 0.0]]), np.array([2, 1])
        raw = evaluate(p, x, y)
        refined = evaluate(p, x, y, baseline=b)
        np.testing.assert_array_equal(raw.confusion, [[1, 0], [1, 0]])
        np.testing.assert_array_equal(refined.confusion, [[1, 0], [0, 1]])

    def test_width_mismatch_rejected(self):
        p = generic_net((8, 10, 4), seed=3)
        narrow = make_baseline("gray", 5, 1.0)
        with pytest.raises(DimensionError):
            evaluate(p, np.zeros((2, 8)), np.array([1, 2]), baseline=narrow)

    def test_double_subtract_applies_twice(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 10, 4), seed=5)
        b = make_baseline("white", 8, 1.0)
        rep = evaluate(
            p, ds.test_x, ds.test_y, baseline=b, double_subtract=True
        )
        base = baseline_logits(p, b)
        pred = np.argmax(logits_array(p, ds.test_x) - base - base, axis=1) + 1
        from lcgclab.metrics import confusion

        np.testing.assert_array_equal(
            rep.confusion, confusion(ds.test_y, pred, 4)
        )


class TestKlConsistency:
    def test_hand_oracle(self):
        """Reversed logits shift log-probs by (z - z_rev) = (-2, 0, 2),
        so KL(p || q) = 2 (p3 - p1); the second row contributes zero."""
        a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        b = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        z = np.exp([1.0, 2.0, 3.0])
        p = z / z.sum()
        expected_row = 2.0 * (p[2] - p[0])
        loss = kl_consistency_loss(a, b)
        np.testing.assert_allclose(loss.item(), expected_row / 2.0, rtol=1e-12)

    def test_identical_inputs_give_exact_zero(self):
        z = np.random.default_rng(7).normal(size=(6, 5))
        assert kl_consistency_loss(z, z.copy()).item() == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.normal(scale=3.0, size=(4, 6))
            b = rng.normal(scale=3.0, size=(4, 6))
            assert kl_consistency_loss(a, b).item() >= 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f():
            return kl_consistency_loss(a, b)

        zero_grads([a, b])
        with Tape():
            loss = f()
        backward(loss)
        g = flatten_grads([a, b])
        fd = finite_diff_grad(lambda: f().item(), [a, b])
        np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_shape_contracts(self):
        with pytest.raises(DimensionError):
            kl_consistency_loss(np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionError):
            kl_consistency_loss(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ContractError):
            kl_consistency_loss(np.zeros((0, 3)), np.zeros((0, 3)))


class TestLcgcCombine:
    def test_worked_example(self):
        """Gb=(1,0), Gd=(-1,1), lam=1: dot=-1, coeff=-1/2, result (1.5,-0.5)."""
        g = lcgc_combine(
            GradientVector([1.0, 0.0]), GradientVector([-1.0, 1.0]), 1.0
        )
        np.testing.assert_array_equal(g.values, [1.5, -0.5])

    def test_agreement_passes_through_identically(self):
        gb = GradientVector([3.0, 4.0])
        gd = GradientVector([1.0, 0.5])
        out = lcgc_combine(gb, gd, 1.0)
        assert out is gb

    def test_zero_direction_passes_through(self):
        gb = GradientVector([3.0, 4.0])
        out = lcgc_combine(gb, GradientVector([0.0, 0.0]), 1.0)
        assert out is gb

    def test_conflict_amplification_identity(self):
        """Under conflict, (G . Gd) = (1 + lam)(Gb . Gd)."""
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 200:
            gb = GradientVector(rng.normal(size=12))
            gd = GradientVector(rng.normal(size=12))
            lam = float(rng.uniform(0.0, 3.0))
            dot = gb.dot(gd)
            if dot >= 0.0:
                continue
            out = lcgc_combine(gb, gd, lam)
            np.testing.assert_allclose(
                out.dot(gd), (1.0 + lam) * dot, rtol=1e-10, atol=1e-10
            )
            checked += 1

    def test_lam_zero_is_identity_in_value(self):
        gb = GradientVector([1.0, 2.0])
        gd = GradientVector([-1.0, 0.0])
        out = lcgc_combine(gb, gd, 0.0)
        np.testing.assert_array_equal(out.values, gb.values)

    def test_contracts(self):
        with pytest.raises(DimensionError):
            lcgc_combine(GradientVector([1.0]), GradientVector([1.0, 2.0]), 1.0)
        with pytest.raises(ContractError):
            lcgc_combine(GradientVector([1.0]), GradientVector([1.0]), -0.5)


class TestGradComponents:
    def test_grad_d_zero_at_symmetric_init(self):
        """At init the black probe sees zero logits everywhere, the KL
        sits at its exact minimum, and its gradient vanishes."""
        ds = synthesize(small_spec())
        p = init_mlp((8, 12, 4), seed=1)
        b = make_baseline("black", 8, ds.value_range())
        g = grad_d(p, ds.unlabeled_x[:10], b)
        assert g.norm == 0.0

    def test_grad_d_matches_finite_differences(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=11)
        b = make_baseline("gray", 8, 1.5)
        x = ds.unlabeled_x[:6]
        g = grad_d(p, x, b)

        def f():
            logits = logits_array(p, x)
            base = baseline_logits(p, b)
            return kl_consistency_loss(logits, logits - base).item()

        fd = finite_diff_grad(f, p.tensors())
        np.testing.assert_allclose(g.values, fd, atol=2e-6)

    def test_grad_b_matches_finite_differences(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=12)
        x = ds.unlabeled_x[:6]
        pseudo = pseudo_label(logits_array(p, x), tau=0.0)
        aug = AugmentConfig(sigma_weak=0.0, sigma_strong=0.0, mask_fraction=0.0)
        g = grad_b(p, x, pseudo, aug, np.random.default_rng(0), weight=0.8)

        from lcgclab.losses import consistency_loss

        def f():
            return consistency_loss(
                p, x, pseudo, aug, np.random.default_rng(0)
            ).item() * 0.8

        fd = finite_diff_grad(f, p.tensors())
        np.testing.assert_allclose(g.values, fd, atol=2e-6)


class TestTrainStep:
    def test_replays_exactly_with_same_state(self):
        ds = synthesize(small_spec())
        settings = small_settings()

        def one_run():
            p = init_mlp((8, 12, 4), seed=3)
            state = TrainState(
                rng=np.random.default_rng(np.random.SeedSequence([3, 1])),
                baseline=make_baseline("black", 8, ds.value_range()),
                target_dist=ds.labeled_distribution(),
                ema_avg=np.full(4, 0.25),
            )
            recs = [train_step(p, ds, settings, state) for _ in range(4)]
            return p, recs

        p1, r1 = one_run()
        p2, r2 = one_run()
        for a, b in zip(p1.tensors(), p2.tensors()):
            np.testing.assert_array_equal(a.data, b.data)
        assert [r.loss_sup for r in r1] == [r.loss_sup for r in r2]
        assert [r.loss_kl for r in r1] == [r.loss_kl for r in r2]

    def test_lam_zero_matches_projection_disabled_bitwise(self):
        """One step with lam=0 and one with the projection branch off
        produce byte-identical parameters from the same start."""
        ds = synthesize(small_spec())

        def one_step(lcgc):
            p = init_mlp((8, 12, 4), seed=4)
            state = TrainState(
                rng=np.random.default_rng(np.random.SeedSequence([4, 1])),
                baseline=make_baseline("black", 8, ds.value_range()),
                target_dist=ds.labeled_distribution(),
                ema_avg=np.full(4, 0.25),
            )
            settings = small_settings(lcgc=lcgc)
            for _ in range(3):
                train_step(p, ds, settings, state)
            return np.concatenate([t.data.ravel() for t in p.tensors()])

        a = one_step(LCGCConfig(lam=0.0))
        b = one_step(LCGCConfig(disable_projection=True))
        assert a.tobytes() == b.tobytes()

    def test_divergence_raises_before_update(self):
        ds = synthesize(small_spec())
        p = init_mlp((8, 12, 4), seed=5)
        # Blow the weights up so the forward pass overflows.
        p.weights[0].data[:] = 1e200
        p.weights[1].data[:] = 1e200
        state = TrainState(
            rng=np.random.default_rng(0),
            baseline=make_baseline("white", 8, ds.value_range()),
            target_dist=ds.labeled_distribution(),
            ema_avg=np.full(4, 0.25),
        )
        before = p.weights[1].data.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train_step(p, ds, small_settings(), state)
        np.testing.assert_array_equal(p.weights[1].data, before)


# (backbone, refine_pseudo_labels) pairs covering both pseudo-label paths.
_PSEUDO_PATHS = [
    ("fixmatch", True),
    ("fixmatch", False),
    ("remix-lite", True),
    ("remix-lite", False),
]


def _default_state(ds, seed):
    return TrainState(
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
        baseline=make_baseline("gray", ds.dim, ds.value_range()),
        target_dist=ds.labeled_distribution(),
        ema_avg=np.full(ds.classes, 1.0 / ds.classes),
    )


class TestOneForwardPerView:
    """Each view goes through the network once per step: labeled weak,
    unlabeled weak, probe and unlabeled strong."""

    @pytest.mark.parametrize("backbone,refine", _PSEUDO_PATHS)
    def test_rows_forwarded_per_step(self, monkeypatch, backbone, refine):
        import lcgclab.debias
        import lcgclab.losses
        import lcgclab.model

        rows = []
        inner = lcgclab.model.forward_logits

        def counting(params, x):
            rows.append((x.data if isinstance(x, Tensor) else x).shape[0])
            return inner(params, x)

        for mod in (lcgclab.model, lcgclab.losses, lcgclab.debias):
            monkeypatch.setattr(mod, "forward_logits", counting)
        ds = synthesize(small_spec())
        settings = TrainSettings(
            backbone=backbone, lcgc=LCGCConfig(refine_pseudo_labels=refine)
        )
        p = init_mlp((8, 12, 4), seed=8)
        train_step(p, ds, settings, _default_state(ds, 8))
        B, mu = settings.batch_size, settings.mu
        assert sum(rows) == B + 2 * mu * B + 1 == 321
        assert len(rows) == 4

    @pytest.mark.parametrize("backbone,refine", _PSEUDO_PATHS)
    def test_pseudo_labels_from_recorded_logits(
        self, monkeypatch, backbone, refine
    ):
        """The pseudo-label input is bitwise what separate inference
        forwards of the weak views and the probe would give."""
        import lcgclab.debias

        weak_views, seen = [], []
        inner_aug = lcgclab.debias.weak_aug
        inner_pl = lcgclab.debias.pseudo_label

        def spy_aug(x, cfg, rng):
            weak_views.append(inner_aug(x, cfg, rng))
            return weak_views[-1]

        def spy_pl(logits, tau):
            seen.append(np.array(logits, copy=True))
            return inner_pl(logits, tau)

        monkeypatch.setattr(lcgclab.debias, "weak_aug", spy_aug)
        monkeypatch.setattr(lcgclab.debias, "pseudo_label", spy_pl)
        ds = synthesize(small_spec())
        settings = small_settings(
            backbone=backbone, lcgc=LCGCConfig(refine_pseudo_labels=refine)
        )
        p = generic_net((8, 12, 4), seed=9)
        before = p.copy()
        state = _default_state(ds, 9)
        train_step(p, ds, settings, state)

        xuw = weak_views[1]
        expected = logits_array(before, xuw)
        if refine:
            expected = expected - baseline_logits(before, state.baseline)
        assert len(seen) == 1
        assert seen[0].tobytes() == expected.tobytes()


class TestRunTraining:
    def test_zero_steps_still_evaluates(self):
        ds = synthesize(small_spec())
        params, rec = run_training(ds, (12,), small_settings(steps=0), seed=6)
        assert rec.steps == []
        assert 0.0 <= rec.final_bacc <= 1.0
        assert rec.confusion.sum() == ds.test_x.shape[0]

    def test_same_seed_replays_run(self):
        ds = synthesize(small_spec())
        s = small_settings(steps=6)
        p1, r1 = run_training(ds, (12,), s, seed=7)
        p2, r2 = run_training(ds, (12,), s, seed=7)
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert a.data.tobytes() == b.data.tobytes()
        assert r1.final_bacc == r2.final_bacc
        np.testing.assert_array_equal(
            r1.kl_trajectory(), r2.kl_trajectory()
        )

    def test_different_seeds_differ(self):
        ds = synthesize(small_spec())
        s = small_settings(steps=6)
        _, r1 = run_training(ds, (12,), s, seed=8)
        _, r2 = run_training(ds, (12,), s, seed=9)
        assert not np.array_equal(r1.kl_trajectory(), r2.kl_trajectory())

    def test_step_callback_sees_every_step(self):
        ds = synthesize(small_spec())
        seen = []
        run_training(
            ds, (12,), small_settings(steps=5), seed=10,
            step_callback=lambda p, rec: seen.append(rec.step),
        )
        assert seen == [0, 1, 2, 3, 4]

    def test_divergence_is_recorded_not_raised(self):
        ds = synthesize(small_spec())
        with np.errstate(over="ignore", invalid="ignore"):
            _, rec = run_training(
                ds, (12,), small_settings(steps=50, lr=1e18), seed=11
            )
        assert rec.diverged
        assert rec.divergence_step is not None
        assert len(rec.steps) < 50

    def test_remix_backbone_runs(self):
        ds = synthesize(small_spec())
        s = small_settings(steps=4, backbone="remix-lite")
        _, rec = run_training(ds, (12,), s, seed=12)
        assert len(rec.steps) == 4


class TestEvaluate:
    def test_matches_manual_argmax(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=13)
        rep = evaluate(p, ds.test_x, ds.test_y)
        pred = np.argmax(logits_array(p, ds.test_x), axis=1) + 1
        from lcgclab.metrics import bacc, confusion

        cm = confusion(ds.test_y, pred, 4)
        np.testing.assert_array_equal(rep.confusion, cm)
        assert rep.bacc == bacc(cm)

    def test_refined_evaluation_shifts_predictions(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=14)
        b = make_baseline("white", 8, ds.value_range())
        raw = evaluate(p, ds.test_x, ds.test_y)
        ref = evaluate(p, ds.test_x, ds.test_y, baseline=b)
        base = baseline_logits(p, b)
        logits = logits_array(p, ds.test_x)
        pred = np.argmax(logits - base, axis=1) + 1
        from lcgclab.metrics import confusion

        np.testing.assert_array_equal(
            ref.confusion, confusion(ds.test_y, pred, 4)
        )
        assert raw.confusion.sum() == ref.confusion.sum()


    def test_double_subtract_parity_with_test_refine(self):
        """Refining each sample on its own, with the baseline taken off
        twice, gives the batch path's predictions."""
        from lcgclab.metrics import confusion

        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=15)
        b = make_baseline("gray", 8, 1.0)
        rep = evaluate(
            p, ds.test_x, ds.test_y, baseline=b, double_subtract=True
        )
        base = baseline_logits(p, b)
        pred = np.array([
            int(np.argmax(logits_array(p, x[None, :])[0] - 2 * base)) + 1
            for x in ds.test_x
        ])
        np.testing.assert_array_equal(
            rep.confusion, confusion(ds.test_y, pred, 4)
        )
        assert rep.confusion.sum() == ds.test_x.shape[0]

class TestIntegratedGradients:
    def test_linear_model_exact_at_one_step(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(6, 3))
        p = ModelParams(
            dims=(6, 3),
            weights=[Tensor(w, requires_grad=True)],
            biases=[Tensor(rng.normal(size=3), requires_grad=True)],
        )
        b = make_baseline("gray", 6, 2.0)
        x = rng.normal(size=6)
        ig = integrated_gradients(p, x, b, target_class=2, steps=1)
        np.testing.assert_allclose(
            ig, (x - b.vector) * w[:, 1], atol=1e-12
        )
        gap = (x @ w + p.biases[0].data)[1] - (b.vector @ w + p.biases[0].data)[1]
        np.testing.assert_allclose(ig.sum(), gap, atol=1e-10)

    def test_completeness_improves_with_steps(self):
        p = generic_net((8, 14, 14, 4), seed=17, wscale=0.2, bscale=0.1)
        b = make_baseline("black", 8, 1.0)
        x = np.random.default_rng(18).normal(scale=0.4, size=8)
        gap = (
            logits_array(p, x[None, :])[0, 0]
            - baseline_logits(p, b)[0]
        )
        res = []
        for m in (4, 64, 512):
            ig = integrated_gradients(p, x, b, target_class=1, steps=m)
            res.append(abs(ig.sum() - gap))
        assert res[2] <= res[0]
        assert res[2] < 1e-3

    def test_contracts(self):
        p = generic_net((4, 6, 3), seed=19)
        b = make_baseline("black", 4, 1.0)
        x = np.zeros(4)
        with pytest.raises(LabelError):
            integrated_gradients(p, x, b, target_class=0, steps=4)
        with pytest.raises(LabelError):
            integrated_gradients(p, x, b, target_class=4, steps=4)
        with pytest.raises(ContractError):
            integrated_gradients(p, x, b, target_class=1, steps=0)
        with pytest.raises(DimensionError):
            integrated_gradients(p, np.zeros(5), b, 1, 4)

    def test_leaves_parameter_grads_clean(self):
        p = generic_net((4, 6, 3), seed=20)
        b = make_baseline("black", 4, 1.0)
        integrated_gradients(p, np.ones(4), b, 1, 8)
        for t in p.tensors():
            assert t.grad is None or not t.grad.any()


class TestVerifyTheorem1:
    def test_passes_on_generic_nets(self):
        p = generic_net((8, 12, 12, 4), seed=21, wscale=0.2, bscale=0.1)
        b = make_baseline("black", 8, 1.0)
        x = np.random.default_rng(22).normal(scale=0.4, size=(12, 8))
        report = verify_theorem1(p, x, b, steps=512)
        assert report.passed
        assert report.max_residual < 1e-3
        np.testing.assert_allclose(
            report.ig_sums, report.logit_gaps, atol=1e-3
        )

    def test_exact_for_linear_model(self):
        rng = np.random.default_rng(23)
        p = ModelParams(
            dims=(5, 3),
            weights=[Tensor(rng.normal(size=(5, 3)), requires_grad=True)],
            biases=[Tensor(rng.normal(size=3), requires_grad=True)],
        )
        b = make_baseline("white", 5, 0.5)
        report = verify_theorem1(p, rng.normal(size=(6, 5)), b, steps=1)
        assert report.max_residual < 1e-10

    def test_rejects_empty_batch(self):
        p = generic_net((4, 6, 3), seed=24)
        b = make_baseline("black", 4, 1.0)
        with pytest.raises(DimensionError):
            verify_theorem1(p, np.zeros((0, 4)), b, steps=4)
