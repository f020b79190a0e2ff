"""Baseline-logit refinement, gradient projection, training, attribution."""

from __future__ import annotations

import ast
import copy
import inspect
import textwrap
import time
import warnings
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest

from conftest import finite_diff_grad, generic_net, grad_b, grad_d, tape_leaves
from lcgclab.config import _SCHEMA, ExperimentConfig, default_config, parse_config_text
from lcgclab.data import AugmentConfig, LongTailSpec, synthesize
from lcgclab.debias import (
    _IG_BLOCK_ROWS,
    BASELINE_COLORS,
    GradientVector,
    RunSettings,
    TrainSettings,
    TrainState,
    baseline_logits,
    evaluate,
    integrated_gradients,
    kl_consistency_loss,
    lcgc_combine,
    make_baseline,
    run_training,
    train_step,
    verify_theorem1,
)
from lcgclab.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    EvaluationError,
    LabelError,
    TrainingDiverged,
)
from lcgclab.kernels import softmax_rows
from lcgclab.losses import pseudo_label
from lcgclab.model import ModelParams, forward_logits, init_mlp, logits_array
from lcgclab.tensor import (
    Tape,
    Tensor,
    backward,
    flatten_grads,
    mul,
    sum_all,
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


class TestBaselines:
    def test_palette_vectors(self):
        d, s = 6, 2.0
        np.testing.assert_array_equal(
            make_baseline("black", d, s), np.zeros(6)
        )
        np.testing.assert_array_equal(
            make_baseline("white", d, s), np.full(6, 2.0)
        )
        np.testing.assert_array_equal(
            make_baseline("gray", d, s), np.full(6, 1.0)
        )
        np.testing.assert_array_equal(
            make_baseline("red", d, s), [2, 2, 0, 0, 0, 0]
        )
        np.testing.assert_array_equal(
            make_baseline("green", d, s), [0, 0, 2, 2, 0, 0]
        )
        np.testing.assert_array_equal(
            make_baseline("blue", d, s), [0, 0, 0, 0, 2, 2]
        )

    def test_primaries_cover_all_coordinates(self):
        d = 7  # not divisible by three
        total = sum(
            make_baseline(c, d, 1.0) for c in ("red", "green", "blue")
        )
        np.testing.assert_array_equal(total, np.ones(7))

    @pytest.mark.parametrize(
        "color, dim", [("blue", 2), ("green", 1), ("blue", 1)]
    )
    def test_primary_that_lights_nothing_rejected(self, color, dim):
        with pytest.raises(ContractError, match="lights no coordinate"):
            make_baseline(color, dim, 1.0)
        # The other primaries still light their coordinate.
        assert make_baseline("red", dim, 1.0)[0] == 1.0

    @pytest.mark.parametrize(
        "dim, scale, error", [(0, 1.0, DimensionError), (4, -1.0, ContractError)]
    )
    def test_bad_dim_or_scale_rejected(self, dim, scale, error):
        with pytest.raises(error, match="dim" if dim < 1 else "scale"):
            make_baseline("gray", dim, scale)

    @pytest.mark.parametrize(
        "dim, scale, error",
        [(4, np.nan, ContractError), (4, np.inf, ContractError),
         (3.5, 1.0, ContractError), (np.float64(4.0), 1.0, ContractError),
         (True, 1.0, ContractError), (0, np.nan, DimensionError)],
    )
    def test_dim_must_be_an_integer_and_scale_finite(self, dim, scale, error):
        """A NaN scale once gave a NaN probe and a dim of 3.5 numpy's
        TypeError; a dim below 1 is checked before the scale."""
        with pytest.raises(error):
            make_baseline("white", dim, scale)

    def test_unknown_color_rejected(self):
        with pytest.raises(ContractError):
            make_baseline("purple", 4, 1.0)
        with pytest.raises(ContractError, match="baseline_color must be one of"):
            TrainSettings(baseline_color="purple")
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
            weights=[np.eye(2)],
            biases=[np.array([1.0, 0.0])],
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
        fd = finite_diff_grad(lambda: f().item(), [a.data, b.data])
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

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lam_rejected(self, lam):
        """Under conflict a NaN lam would give NaN values, inf ±inf."""
        gb, gd = GradientVector([1.0, 0.0]), GradientVector([-1.0, 1.0])
        with pytest.raises(ContractError, match="finite"):
            lcgc_combine(gb, gd, lam)


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
        pseudo = pseudo_label(softmax_rows(logits_array(p, x)), tau=0.0)
        aug = AugmentConfig(sigma_weak=0.0, sigma_strong=0.0, mask_fraction=0.0)
        g = grad_b(p, x, pseudo, aug, np.random.default_rng(0), weight=0.8)

        from lcgclab.losses import consistency_loss

        def f():
            return consistency_loss(
                p, x, pseudo, aug, np.random.default_rng(0)
            ).item() * 0.8

        fd = finite_diff_grad(f, p.tensors())
        np.testing.assert_allclose(g.values, fd, atol=2e-6)

    def test_grad_b_rejects_an_empty_batch(self):
        """The empty batch is the consistency loss's ContractError,
        although grad_b sizes its buffers before the loss checks it."""
        p = generic_net((8, 12, 4), seed=12)
        pseudo = pseudo_label(np.full((1, 4), 0.25), tau=0.0)
        with pytest.raises(ContractError, match="empty batch"):
            grad_b(p, np.empty((0, 8)), pseudo, AugmentConfig(),
                   np.random.default_rng(0))


# Probes an 8-wide net cannot take: too narrow, and a row, not a vector.
_WRONG_PROBES = {"narrow": make_baseline("gray", 5, 1.0), "row": np.zeros((1, 8))}


class TestWrongProbe:
    """A probe the model cannot take is a DimensionError where it is
    stacked with the weak views, as it is in ``evaluate``."""

    @pytest.mark.parametrize("probe", list(_WRONG_PROBES))
    def test_grad_d(self, probe):
        p = generic_net((8, 10, 4), seed=3)
        x = synthesize(small_spec()).unlabeled_x[:6]
        with pytest.raises(DimensionError):
            grad_d(p, x, _WRONG_PROBES[probe])

    @pytest.mark.parametrize("probe", list(_WRONG_PROBES))
    def test_train_step(self, probe):
        ds = synthesize(small_spec())
        p = generic_net((8, 10, 4), seed=3)
        state = _default_state(ds, 3)
        state.baseline = _WRONG_PROBES[probe]
        with pytest.raises(DimensionError):
            train_step(p, ds, small_settings(), state)


@pytest.mark.parametrize(
    "field, value",
    [("steps", -1), ("lr", 0.0), ("consistency_weight", -0.5),
     ("backbone", "mixmatch")],
)
def test_train_settings_rejects_out_of_range(field, value):
    with pytest.raises(ContractError, match=field):
        TrainSettings(**{field: value})


# The settings records and where a config holds their fields. Their
# fields declare the single-field rules in metadata; ExperimentConfig's
# RunSettings fields are RunSettings'.
_RECORDS = {RunSettings: "", LongTailSpec: "spec.", AugmentConfig: "aug.",
            ExperimentConfig: ""}
# n_max at its bound of 1 keeps a tail class only at gamma 1.
_FEASIBLE = {LongTailSpec: dict(gamma_labeled=1.0, gamma_unlabeled=1.0)}
_KEYS = {attr: key for key, attr in _SCHEMA.items()}


def _at_the_rules(f) -> list[tuple[object, bool]]:
    """(value, accepted) at each rule the field ``f`` declares: an
    inclusive bound and the nearest value past it, an exclusive bound
    and the nearest value inside it, each choice and a str that is none.
    A bound on an int tuple's items is tried on a 1-tuple."""
    rules = dict(f.metadata)
    if "choices" in rules:
        return [(c, True) for c in rules["choices"]] + [("nonesuch", False)]
    if "lo" in rules:
        item = (lambda v: (v,)) if f.type.startswith("tuple") else (lambda v: v)
        return [(item(rules["lo"]), True), (item(rules["lo"] - 1), False)]
    out = []
    for rule, bound in rules.items():
        inside = np.inf if rule in ("ge", "gt") else -np.inf
        if rule in ("ge", "le"):
            out += [(bound, True), (float(np.nextafter(bound, -inside)), False)]
        else:
            out += [(bound, False), (float(np.nextafter(bound, inside)), True)]
    return out


def _declared_cases():
    run_fields = {f.name for f in fields(RunSettings)}
    for cls in _RECORDS:
        for f in fields(cls):
            if not f.metadata or cls is ExperimentConfig and f.name in run_fields:
                continue
            for value, accepted in _at_the_rules(f):
                yield pytest.param(cls, f.name, value, accepted,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


def _through_the_config(cls, name, value):
    """The config with the field at ``value``: through override for a
    field of its own, through the config text for a field of spec or aug."""
    if not _RECORDS[cls]:
        return default_config().override(**{name: value})
    given = {f"{_RECORDS[cls]}{k}": v for k, v in _FEASIBLE.get(cls, {}).items()}
    given[_RECORDS[cls] + name] = value
    return parse_config_text("".join(f"{_KEYS[a]} = {v!r}\n" for a, v in given.items()))


@pytest.mark.parametrize("cls, name, value, accepted", list(_declared_cases()))
def test_declared_bounds_and_choices_hold(cls, name, value, accepted):
    """Each bound and choice a settings field declares holds in its record
    (ContractError naming the field; ExperimentConfig raises ConfigError)
    and through the config (ConfigError naming the field)."""
    kw = _FEASIBLE.get(cls, {}) | {name: value}
    if accepted:
        assert getattr(cls(**kw), name) == value
        config = _through_the_config(cls, name, value)
        assert attrgetter(_RECORDS[cls] + name)(config) == value
        return
    error = ConfigError if cls is ExperimentConfig else ContractError
    with pytest.raises(error, match=rf"\b{name} must be"):
        cls(**kw)
    with pytest.raises(ConfigError, match=rf"\b{name} must be"):
        _through_the_config(cls, name, value)


def test_post_inits_check_no_single_field():
    """A single-field rule is declared in the field's metadata: no
    settings record's __post_init__ calls a converter with a bound or
    choices."""
    for cls in _RECORDS:
        source = textwrap.dedent(inspect.getsource(cls.__post_init__))
        called = {
            getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
        }
        assert not called & {"as_int", "as_float", "as_choice"}, cls.__name__


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
            np.testing.assert_array_equal(a, b)
        assert [r.loss_sup for r in r1] == [r.loss_sup for r in r2]
        assert [r.loss_kl for r in r1] == [r.loss_kl for r in r2]

    def test_lam_zero_matches_projection_disabled_bitwise(self):
        """One step with lam=0 and one with the projection branch off
        produce byte-identical parameters from the same start."""
        ds = synthesize(small_spec())

        def one_step(**switches):
            p = init_mlp((8, 12, 4), seed=4)
            state = TrainState(
                rng=np.random.default_rng(np.random.SeedSequence([4, 1])),
                baseline=make_baseline("black", 8, ds.value_range()),
                target_dist=ds.labeled_distribution(),
                ema_avg=np.full(4, 0.25),
            )
            settings = small_settings(**switches)
            for _ in range(3):
                train_step(p, ds, settings, state)
            return np.concatenate([t.ravel() for t in p.tensors()])

        a = one_step(lam=0.0)
        b = one_step(disable_projection=True)
        assert a.tobytes() == b.tobytes()

    def test_divergence_raises_before_update(self):
        ds = synthesize(small_spec())
        p = init_mlp((8, 12, 4), seed=5)
        # Blow the weights up so the forward pass overflows.
        p.weights[0][:] = 1e200
        p.weights[1][:] = 1e200
        state = TrainState(
            rng=np.random.default_rng(0),
            baseline=make_baseline("white", 8, ds.value_range()),
            target_dist=ds.labeled_distribution(),
            ema_avg=np.full(4, 0.25),
        )
        before = p.weights[1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as exc:
                train_step(p, ds, small_settings(), state)
        np.testing.assert_array_equal(p.weights[1], before)
        diag = exc.value.diagnostics
        assert set(diag["losses"]) == {"loss_sup", "loss_con", "loss_kl"}
        assert set(diag["grad_norms"]) == {"g_b", "g_d", "g_sup"}
        assert "update" in diag["non_finite"]


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
    """Each view goes through the network once per step, in two plain
    forwards: unlabeled weak, probe and labeled weak stacked, then
    unlabeled strong."""

    @pytest.mark.parametrize("backbone,refine", _PSEUDO_PATHS)
    def test_rows_forwarded_per_step(self, monkeypatch, backbone, refine):
        import lcgclab.debias
        import lcgclab.model

        rows = []
        inner = lcgclab.model.forward_cached

        def counting(params, x, *, out=None):
            rows.append(x.shape[0])
            return inner(params, x, out=out)

        for mod in (lcgclab.model, lcgclab.debias):
            monkeypatch.setattr(mod, "forward_cached", counting)
        ds = synthesize(small_spec())
        settings = TrainSettings(backbone=backbone, refine_pseudo_labels=refine)
        p = init_mlp((8, 12, 4), seed=8)
        train_step(p, ds, settings, _default_state(ds, 8))
        B, mu = settings.batch_size, settings.mu
        assert sum(rows) == B + 2 * mu * B + 1 == 321
        assert len(rows) == 2

    @pytest.mark.parametrize("backbone,refine", _PSEUDO_PATHS)
    def test_one_softmax_per_step(self, monkeypatch, backbone, refine):
        """The step's one softmax, the pseudo-labels', comes out of the
        log-softmax pass of its source: no softmax pass runs, and three
        log-softmax passes do (the first forward's logits, the refined
        weak logits, the strong logits). The pseudo-labeller gets those
        probabilities, bitwise ``softmax_rows`` of the source
        (``test_pseudo_labels_from_recorded_logits``), and remix-lite's
        soft targets start from them, not from a second softmax."""
        import lcgclab.debias
        import lcgclab.kernels

        softmaxes, log_softmaxes, seen = [], [], []
        inner_sm = lcgclab.kernels.softmax_rows
        inner_lsm = lcgclab.kernels.log_softmax_rows
        inner_pl = lcgclab.debias.pseudo_label

        def counting_sm(z):
            softmaxes.append(z.shape)
            return inner_sm(z)

        def counting_lsm(z, **kw):
            log_softmaxes.append(z.shape)
            return inner_lsm(z, **kw)

        def spy_pl(probs, tau):
            seen.append(probs.shape)
            return inner_pl(probs, tau)

        monkeypatch.setattr(lcgclab.kernels, "softmax_rows", counting_sm)
        monkeypatch.setattr(lcgclab.kernels, "log_softmax_rows", counting_lsm)
        monkeypatch.setattr(lcgclab.debias, "pseudo_label", spy_pl)
        ds = synthesize(small_spec())
        settings = small_settings(backbone=backbone, refine_pseudo_labels=refine)
        train_step(init_mlp((8, 12, 4), seed=8), ds, settings, _default_state(ds, 8))
        n, B = settings.mu * settings.batch_size, settings.batch_size
        assert softmaxes == []
        assert log_softmaxes == [(n + 1 + B, 4), (n, 4), (n, 4)]
        assert seen == [(n, 4)]

    @pytest.mark.parametrize("backbone,refine", _PSEUDO_PATHS)
    def test_pseudo_labels_from_recorded_logits(
        self, monkeypatch, backbone, refine
    ):
        """The pseudo-label probabilities are bitwise ``softmax_rows`` of
        the weak rows (minus the probe row when refining) of one
        inference forward of the stacked weak, probe and labeled rows."""
        import lcgclab.debias

        weak_views, seen = [], []
        inner_aug = lcgclab.debias.weak_aug
        inner_pl = lcgclab.debias.pseudo_label

        def spy_aug(x, cfg, rng, **kw):
            # A copy: the views are drawn into the step's buffers.
            weak_views.append(inner_aug(x, cfg, rng, **kw).copy())
            return weak_views[-1]

        def spy_pl(probs, tau):
            seen.append(probs.copy())
            return inner_pl(probs, tau)

        monkeypatch.setattr(lcgclab.debias, "weak_aug", spy_aug)
        monkeypatch.setattr(lcgclab.debias, "pseudo_label", spy_pl)
        ds = synthesize(small_spec())
        settings = small_settings(backbone=backbone, refine_pseudo_labels=refine)
        p = generic_net((8, 12, 4), seed=9)
        before = copy.deepcopy(p)
        state = _default_state(ds, 9)
        train_step(p, ds, settings, state)

        xlw, xuw = weak_views
        n = xuw.shape[0]
        z = logits_array(
            before, np.vstack([xuw, state.baseline[None, :], xlw])
        )
        expected = z[:n] - z[n] if refine else z[:n]
        assert len(seen) == 1
        assert seen[0].tobytes() == softmax_rows(expected).tobytes()


# Training branches for the parity and no-tape tests: (label, config
# overrides). Hard and soft targets, a confidence mask, a consistency
# weight, refinement on and off, and the three methods.
_BRANCHES = [
    ("lcgc-fixmatch", {}),
    ("lcgc-remix", {"backbone": "remix-lite"}),
    ("tau", {"tau": 0.7}),
    ("weight", {"consistency_weight": 0.7}),
    ("no-refine", {"refine_pseudo_labels": False}),
    ("baseline", {"method": "baseline"}),
    ("cdmad-remix-tau", {"method": "cdmad", "backbone": "remix-lite", "tau": 0.7}),
]


def _branch_settings(overrides):
    from lcgclab.config import default_config

    cfg = default_config().override(steps=3, batch_size=8, mu=2, lr=0.05)
    return cfg.override(**overrides).train_settings()


def _tape_grad(params, loss_fn):
    """The tape's flat gradient and value of ``loss_fn(leaves)`` on
    leaves holding ``params``' values."""
    leaves = tape_leaves(params)
    with Tape():
        loss = loss_fn(leaves)
    backward(loss)
    return flatten_grads(leaves.tensors()), loss.item()


def _rel_err(g, ref):
    diff = np.linalg.norm(np.subtract(g, ref))
    return float(diff / max(np.linalg.norm(ref), 1e-300))


class TestRowBlockParity:
    """The row-block gradients a training step takes match the tape's
    (``forward_logits`` under ``kl_consistency_loss``,
    ``consistency_loss`` and ``supervised_loss``) on the same inputs."""

    @pytest.mark.parametrize("hidden", [(12,), (12, 10)], ids=["h1", "h2"])
    @pytest.mark.parametrize(
        "overrides", [b for _, b in _BRANCHES], ids=[n for n, _ in _BRANCHES]
    )
    def test_blocks_match_the_tape(self, monkeypatch, hidden, overrides):
        import lcgclab.debias as D
        from lcgclab import kernels as K
        from lcgclab.losses import consistency_loss, supervised_loss
        from lcgclab.model import forward_logits
        from lcgclab.tensor import add_rowvec, scale

        errors = []
        real_d, real_b = D._grad_d_with_loss, D._grad_b_with_loss

        def check_d(params, x, n, y_labeled, bufs, refine):
            x_weak, baseline = x[:n].copy(), x[n].copy()
            x_labeled = x[n + 1 :].copy()
            z = logits_array(params, x.copy())
            src = z[:n] - z[n] if refine else z[:n]
            out = real_d(params, x, n, y_labeled, bufs, refine)
            g_d, loss_kl, probs, g_sup, loss_sup = out
            assert probs.tobytes() == K.softmax_rows(src).tobytes()

            def kl(leaves):
                logits = forward_logits(leaves, x_weak)
                base = forward_logits(leaves, baseline[None, :])
                return kl_consistency_loss(
                    logits, add_rowvec(logits, scale(base, -1.0))
                )

            ref, ref_loss = _tape_grad(params, kl)
            errors.append(("g_d", _rel_err(g_d.values, ref)))
            errors.append(("loss_kl", _rel_err(loss_kl, ref_loss)))
            ref, ref_loss = _tape_grad(
                params, lambda q: supervised_loss(q, x_labeled, y_labeled)
            )
            errors.append(("g_sup", _rel_err(g_sup, ref)))
            errors.append(("loss_sup", _rel_err(loss_sup, ref_loss)))
            return out

        def check_b(params, x_unlabeled, pseudo, aug, rng, weight, bufs):
            rng_copy = copy.deepcopy(rng)
            g_b, loss_con = real_b(
                params, x_unlabeled, pseudo, aug, rng, weight, bufs
            )
            ref, ref_loss = _tape_grad(
                params,
                lambda q: scale(
                    consistency_loss(q, x_unlabeled, pseudo, aug, rng_copy),
                    weight,
                ),
            )
            assert rng_copy.bit_generator.state == rng.bit_generator.state
            errors.append(("g_b", _rel_err(g_b.values, ref)))
            errors.append(("loss_con", _rel_err(loss_con * weight, ref_loss)))
            return g_b, loss_con

        monkeypatch.setattr(D, "_grad_d_with_loss", check_d)
        monkeypatch.setattr(D, "_grad_b_with_loss", check_b)
        ds = synthesize(small_spec())
        settings = _branch_settings(overrides)
        p = generic_net((8, *hidden, 4), seed=31)
        state = _default_state(ds, 31)
        recs = [train_step(p, ds, settings, state) for _ in range(3)]
        assert len(errors) == 3 * 6
        worst = max(errors, key=lambda e: e[1])
        assert worst[1] <= 1e-12, worst
        if settings.tau > 0.0:
            assert min(r.mask_rate for r in recs) < 1.0

    @pytest.mark.parametrize(
        "overrides", [b for _, b in _BRANCHES], ids=[n for n, _ in _BRANCHES]
    )
    def test_train_step_records_no_tape_node(self, monkeypatch, overrides):
        def refuse(self):
            raise AssertionError("train_step opened an autodiff tape")

        monkeypatch.setattr(Tape, "__enter__", refuse)
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 10, 4), seed=32)
        state = _default_state(ds, 32)
        for _ in range(2):
            train_step(p, ds, _branch_settings(overrides), state)
        assert state.step == 2


class TestStepBuffers:
    """A run allocates its step arrays once and reuses them; nothing a
    step computes depends on that, and nothing it hands out aliases
    them."""

    @pytest.mark.parametrize("backbone", ["fixmatch", "remix-lite"])
    def test_reuse_is_invisible(self, backbone):
        ds = synthesize(small_spec())
        settings = small_settings(backbone=backbone)

        def run(fresh):
            p = generic_net((8, 12, 10, 4), seed=33)
            state = _default_state(ds, 33)
            recs, seen = [], []
            for _ in range(4):
                if fresh:
                    state.buffers = None
                recs.append(train_step(p, ds, settings, state))
                seen.append(state.buffers)
            assert len({id(b) for b in seen}) == (4 if fresh else 1)
            return b"".join(t.tobytes() for t in p.tensors()), repr(recs)

        assert run(fresh=False) == run(fresh=True)

    def test_weak_logits_do_not_alias_the_buffers(self):
        import lcgclab.debias as D
        from lcgclab.model import StepBuffers

        ds = synthesize(small_spec())
        p = generic_net((8, 12, 10, 4), seed=34)
        xu, xl, yl = ds.unlabeled_x[:16], ds.labeled_x[:8], ds.labeled_y[:8]
        baseline = make_baseline("gray", 8, ds.value_range())
        bufs = StepBuffers(p, 16, 8, baseline)
        held = [
            *bufs.acts, *(flat for flat, _ in bufs.grads),
            bufs.stacked, bufs.strong,
        ]
        for refine in (True, False):
            bufs.stacked[:16], bufs.stacked[17:] = xu, xl
            z = logits_array(p, bufs.stacked.copy())
            want = softmax_rows(z[:16] - z[16] if refine else z[:16]).tobytes()
            _, _, probs, _, _ = D._grad_d_with_loss(
                p, bufs.stacked, 16, yl, bufs, refine
            )
            assert not any(np.shares_memory(probs, a) for a in held)
            assert probs.tobytes() == want
            pseudo = pseudo_label(probs, 0.0)
            rng = np.random.default_rng(34)
            D._grad_b_with_loss(p, xu, pseudo, AugmentConfig(), rng, 1.0, bufs)
            assert probs.tobytes() == want

    def test_public_wrappers_return_fresh_arrays(self):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=35)
        x = ds.unlabeled_x[:6]
        baseline = make_baseline("gray", 8, ds.value_range())
        pseudo = pseudo_label(softmax_rows(logits_array(p, x)), 0.0)
        aug = AugmentConfig()
        for call in (
            lambda xs: grad_d(p, xs, baseline),
            lambda xs: grad_b(p, xs, pseudo, aug, np.random.default_rng(0)),
        ):
            first = call(x)
            kept = first.values.copy()
            second = call(x[::-1].copy())
            assert not np.shares_memory(first.values, second.values)
            assert first.values.tobytes() == kept.tobytes()


class TestRunTraining:
    def test_zero_steps_still_evaluates(self):
        ds = synthesize(small_spec())
        params, rec = run_training(ds, (12,), small_settings(steps=0), seed=6)
        assert rec.steps == []
        assert 0.0 <= rec.final_bacc <= 1.0
        assert rec.confusion.sum() == ds.test_x.shape[0]
        out = rec.to_dict()
        assert (out["n_steps"], out["conflict_rate"]) == (0, 0.0)

    def test_same_seed_replays_run(self):
        ds = synthesize(small_spec())
        s = small_settings(steps=6)
        p1, r1 = run_training(ds, (12,), s, seed=7)
        p2, r2 = run_training(ds, (12,), s, seed=7)
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert a.tobytes() == b.tobytes()
        assert r1.final_bacc == r2.final_bacc
        np.testing.assert_array_equal(
            [r.loss_kl for r in r1.steps], [r.loss_kl for r in r2.steps]
        )

    def test_different_seeds_differ(self):
        ds = synthesize(small_spec())
        s = small_settings(steps=6)
        _, r1 = run_training(ds, (12,), s, seed=8)
        _, r2 = run_training(ds, (12,), s, seed=9)
        assert not np.array_equal(
            [r.loss_kl for r in r1.steps], [r.loss_kl for r in r2.steps]
        )

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

    def test_evaluation_error_of_a_finite_run_is_raised(self):
        """Only a diverged run turns non-finite test logits into null
        metrics; a run that trained fine raises evaluate's error."""
        ds = synthesize(small_spec())
        ds.test_x[0, 0] = np.nan
        with pytest.raises(EvaluationError, match="input batch contains non-finite"):
            run_training(ds, (12,), small_settings(steps=2), seed=11)

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

    @pytest.mark.parametrize("refine", [False, True])
    def test_non_finite_logits_raise(self, refine):
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=13)
        p.weights[1][0, 0] = 1e308  # overflows logit 1 on some rows
        b = make_baseline("white", 8, ds.value_range()) if refine else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match="non-finite logits"):
                evaluate(p, ds.test_x, ds.test_y, baseline=b)

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

    def test_double_subtract_without_probe_is_inert(self):
        """double_subtract only scales the probe's correction; with no
        probe, evaluation reads the raw logits."""
        ds = synthesize(small_spec())
        p = generic_net((8, 12, 4), seed=15)
        raw = evaluate(p, ds.test_x, ds.test_y)
        twice = evaluate(
            p, ds.test_x, ds.test_y, baseline=None, double_subtract=True
        )
        assert (twice.bacc, twice.gm) == (raw.bacc, raw.gm)
        np.testing.assert_array_equal(twice.confusion, raw.confusion)

class TestIntegratedGradients:
    def test_linear_model_exact_at_one_step(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(6, 3))
        p = ModelParams(
            dims=(6, 3),
            weights=[w],
            biases=[rng.normal(size=3)],
        )
        b = make_baseline("gray", 6, 2.0)
        x = rng.normal(size=(1, 6))
        ig = integrated_gradients(p, x, b, np.array([2]), 1)
        assert ig.shape == (1, 6)
        np.testing.assert_allclose(
            ig[0], (x[0] - b) * w[:, 1], atol=1e-12
        )
        gap = (x[0] @ w + p.biases[0])[1] - (b @ w + p.biases[0])[1]
        np.testing.assert_allclose(ig.sum(), gap, atol=1e-10)

    def test_completeness_improves_with_steps(self):
        p = generic_net((8, 14, 14, 4), seed=17, wscale=0.2, bscale=0.1)
        b = make_baseline("black", 8, 1.0)
        x = np.random.default_rng(18).normal(scale=0.4, size=(1, 8))
        gap = logits_array(p, x)[0, 0] - baseline_logits(p, b)[0]
        res = []
        for m in (4, 64, 512):
            ig = integrated_gradients(p, x, b, np.array([1]), m)
            res.append(abs(ig.sum() - gap))
        assert res[2] <= res[0]
        assert res[2] < 1e-3

    def test_contracts(self):
        p = generic_net((4, 6, 3), seed=19)
        b = make_baseline("black", 4, 1.0)
        x = np.zeros((2, 4))
        one = np.array([1, 1])
        with pytest.raises(LabelError):
            integrated_gradients(p, x, b, np.array([0, 1]), 4)
        with pytest.raises(LabelError):
            integrated_gradients(p, x, b, np.array([1, 4]), 4)
        with pytest.raises(LabelError):  # not integers
            integrated_gradients(p, x, b, np.array([1.0, 2.0]), 4)
        with pytest.raises(DimensionError):  # not one per sample
            integrated_gradients(p, x, b, np.array([1]), 4)
        with pytest.raises(DimensionError):
            integrated_gradients(p, x, b, 1, 4)
        with pytest.raises(ContractError):
            integrated_gradients(p, x, b, one, 0)
        with pytest.raises(DimensionError):  # not a batch
            integrated_gradients(p, np.zeros(4), b, one[:1], 4)
        with pytest.raises(DimensionError):  # samples too wide
            integrated_gradients(p, np.zeros((2, 5)), b, one, 4)
        with pytest.raises(DimensionError):  # probe too wide
            integrated_gradients(p, x, np.zeros(5), one, 4)
        with pytest.raises(DimensionError):  # agree, but not with the model
            integrated_gradients(p, np.zeros((2, 5)), np.zeros(5), one, 4)

    @pytest.mark.parametrize("steps", [2.5, np.float64(3.0), True, 0, -1])
    @pytest.mark.parametrize("dims", [(4, 6, 3), (4, 6, 5, 3)],
                             ids=["one-hidden", "two-hidden"])
    def test_steps_must_be_an_integer(self, dims, steps):
        """A bool or a float is no step count on any depth: 2.5 once
        gave a report on a one-hidden-layer net and a raw TypeError on a
        deeper one."""
        p = generic_net(dims, seed=19)
        b = make_baseline("black", 4, 1.0)
        x = np.random.default_rng(25).normal(size=(2, 4))
        with pytest.raises(ContractError, match="steps"):
            integrated_gradients(p, x, b, np.array([1, 2]), steps)
        with pytest.raises(ContractError, match="steps"):
            verify_theorem1(p, x, b, steps=steps)

    @pytest.mark.parametrize("dims", [(4, 6, 3), (4, 6, 5, 3)],
                             ids=["one-hidden", "two-hidden"])
    def test_numpy_integer_steps_match_python_ints(self, dims):
        """A numpy integer counts the same path points as the Python int
        of its value, a narrow one too: uint8 arithmetic with the
        256-row block size would leave its range."""
        p = generic_net(dims, seed=19)
        b = make_baseline("gray", 4, 1.0)
        x = np.random.default_rng(25).normal(size=(3, 4))
        labels = np.array([1, 2, 3])
        for steps in (np.int64(7), np.int32(7), np.uint8(200)):
            ig = integrated_gradients(p, x, b, labels, steps)
            ref = integrated_gradients(p, x, b, labels, int(steps))
            assert ig.tobytes() == ref.tobytes()
            report = verify_theorem1(p, x, b, steps=steps)
            assert report.ig_sums.tobytes() == (
                verify_theorem1(p, x, b, steps=int(steps)).ig_sums.tobytes()
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["sample", "baseline"])
    def test_non_finite_path_raises(self, where, bad):
        p = generic_net((4, 6, 3), seed=19)
        x, b = np.ones((1, 4)), make_baseline("black", 4, 1.0)
        (x[0] if where == "sample" else b)[2] = bad
        with pytest.raises(EvaluationError):
            integrated_gradients(p, x, b, np.array([1]), 4)

    def test_leaves_parameter_grads_clean(self):
        """Parameters are arrays, with no grad slot: the audit leaves
        them bitwise unchanged."""
        p = generic_net((4, 6, 3), seed=20)
        before = copy.deepcopy(p)
        b = make_baseline("black", 4, 1.0)
        integrated_gradients(p, np.ones((2, 4)), b, np.array([1, 3]), 8)
        for t, t0 in zip(p.tensors(), before.tensors()):
            assert t.tobytes() == t0.tobytes()

    @pytest.mark.parametrize("steps", [1, 3, 48, 300])
    @pytest.mark.parametrize("color", ["black", "gray", "red"])
    def test_one_hidden_layer_matches_its_lift(self, monkeypatch, color, steps):
        """A one-hidden-layer net counts its active path points; the same
        function with an identity middle layer evaluates them block by
        block. The two attributions agree."""
        import lcgclab.kernels

        calls = []
        inner = lcgclab.kernels.relu_vjp

        def counting(g, mask, *, out=None):
            assert mask.dtype == np.bool_
            calls.append(mask.shape)
            return inner(g, mask, out=out)

        monkeypatch.setattr(lcgclab.kernels, "relu_vjp", counting)
        b = make_baseline(color, 8, 1.0)
        for seed in (51, 52, 53):
            p = generic_net((8, 12, 4), seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(7, 8))
            labels = rng.integers(1, 5, size=7)
            ig = integrated_gradients(p, x, b, labels, steps)
            assert not calls
            ref = integrated_gradients(_lift(p), x, b, labels, steps)
            assert calls
            calls.clear()
            np.testing.assert_allclose(ig, ref, rtol=0, atol=1e-12)

    def test_one_hidden_layer_takes_any_step_count(self):
        """The counted path costs the same at any resolution: a million
        path points finish in milliseconds, and close the logit gap."""
        p = generic_net((8, 12, 4), seed=54)
        b = make_baseline("black", 8, 1.0)
        x = np.random.default_rng(55).normal(size=(8, 8))
        t0 = time.perf_counter()
        report = verify_theorem1(p, x, b, steps=2**20)
        assert time.perf_counter() - t0 < 0.1
        assert report.max_residual < 1e-4

    def test_one_hidden_layer_zero_slopes_run_clean(self):
        """Units flat along the path (v = 0) divide by zero in the
        crossing, or take 0/0 where they also sit at zero on the probe
        (u = 0): every unit on a sample at the probe, and units 3 to 5 on
        a sample orthogonal to their incoming weights, on or off along
        the whole path. None may warn, the counts match the lift's, and
        the probe's own row attributes exactly nothing."""
        p = generic_net((8, 12, 4), seed=56)
        w1, b1 = p.weights[0], p.biases[0]
        b1[:6] = 0.0, 0.0, 0.0, 0.0, 0.3, -0.3  # u = b1 at the black probe
        w1[:, 3:6] = 0.0
        w1[:2, 3:6] = [[0.4, 0.5, -0.7], [-0.4, -0.5, 0.7]]
        b = make_baseline("black", 8, 1.0)
        x = np.random.default_rng(57).normal(size=(4, 8))
        x[1] = b
        x[2] = 0.0
        x[2, :2] = 1.0  # (x - I) . w1[:, j] = 0 for j = 3, 4, 5
        labels = np.array([1, 2, 3, 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ig = integrated_gradients(p, x, b, labels, 16)
            ref = integrated_gradients(_lift(p), x, b, labels, 16)
            report = verify_theorem1(p, x, b, steps=16)
        np.testing.assert_allclose(ig, ref, rtol=0, atol=1e-12)
        assert ig[2, :2].any()
        assert report.ig_sums[1] == 0.0

    def test_one_hidden_layer_exact_cancellation(self):
        """A nonzero path step orthogonal to a unit's incoming weights
        gives v = +0.0 exactly, on units with u > 0, u < 0 and u = 0; the
        first stays active along the whole path, and the per-dimension
        attributions match the lift's."""
        w1 = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        w2 = np.random.default_rng(58).normal(size=(3, 4))
        p = ModelParams(
            dims=(2, 3, 4),
            weights=[w1, w2],
            biases=[np.array([0.4, -0.4, 0.0]), np.zeros(4)],
        )
        b = make_baseline("black", 2, 1.0)
        x = np.array([[0.5, 0.5], [-0.25, -0.25]])
        labels = np.array([1, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ig = integrated_gradients(p, x, b, labels, 16)
            ref = integrated_gradients(_lift(p), x, b, labels, 16)
        np.testing.assert_allclose(ig, ref, rtol=0, atol=1e-12)
        assert np.all(ig != 0.0)

    def test_one_hidden_layer_completeness(self):
        """Criterion 4's check on one-hidden-layer nets: 10 nets x 20
        inputs close the logit gap within 1e-3 at 512 path steps."""
        for trial in range(10):
            p = generic_net(
                (8, 14, 4), seed=4000 + trial, wscale=0.15, bscale=0.1
            )
            b = make_baseline("black", 8, 1.0)
            x = np.random.default_rng(5000 + trial).normal(
                scale=0.4, size=(20, 8)
            )
            report = verify_theorem1(p, x, b, steps=512)
            assert report.max_residual < 1e-3


def _lift(params):
    """A one-hidden-layer net as a two-hidden-layer one with an identity
    middle layer: relu(relu(z)) = relu(z), so it computes the same
    function."""
    d, h, c = params.dims
    w1, w2 = params.weights
    b1, b2 = params.biases
    return ModelParams(
        dims=(d, h, h, c),
        weights=[w1, np.eye(h), w2],
        biases=[b1, np.zeros(h), b2],
    )


def _tape_audit(params, x, base, steps):
    """verify_theorem1's (labels, ig_sums, logit_gaps) from one autodiff
    tape per sample: the input gradient of the refined label's logit at
    each path point, averaged and scaled by (x - I)."""
    base_row = baseline_logits(params, base)
    logits = logits_array(params, x)
    labels = np.argmax(logits - base_row, axis=1) + 1
    ks = (np.arange(1, steps + 1, dtype=np.float64) / steps)[:, None]
    sums, gaps = [], []
    for xi, zi, c in zip(x, logits, labels):
        select = np.zeros((steps, params.dims[-1]))
        select[:, c - 1] = 1.0
        with Tape():
            leaf = Tensor(base + ks * (xi - base), requires_grad=True)
            total = sum_all(mul(forward_logits(params, leaf), Tensor(select)))
        backward(total)
        sums.append(((xi - base) * leaf.grad.mean(axis=0)).sum())
        gaps.append(zi[c - 1] - base_row[c - 1])
    return labels, np.array(sums), np.array(gaps)


def _linear_net(seed):
    rng = np.random.default_rng(seed)
    return ModelParams(
        dims=(5, 3),
        weights=[rng.normal(size=(5, 3))],
        biases=[rng.normal(size=3)],
    )


# (net, baseline, batch size, path steps): a 3-layer net; a linear one
# at a single step; a batch of three row blocks, the last partial; a net
# with two middle hidden layers; more path steps than a block has rows,
# so each block holds one sample; and a batch whose third sample is the
# baseline itself. The "-one-hidden" twins run the last two batches
# through a net with no middle layer, whose path points are counted, not
# evaluated in blocks.
_BLOCK_STEPS = 48
_PER_BLOCK = _IG_BLOCK_ROWS // _BLOCK_STEPS
_AUDIT_CASES = {
    "three-layer": (
        lambda: generic_net((8, 12, 10, 4), seed=41),
        make_baseline("black", 8, 1.0), 12, 48,
    ),
    "linear-one-step": (
        lambda: _linear_net(42), make_baseline("white", 5, 0.5), 9, 1,
    ),
    "block-boundary": (
        lambda: generic_net((8, 12, 10, 4), seed=43),
        make_baseline("gray", 8, 1.0), 2 * _PER_BLOCK + 3, _BLOCK_STEPS,
    ),
    "block-boundary-one-hidden": (
        lambda: generic_net((8, 12, 4), seed=43),
        make_baseline("gray", 8, 1.0), 2 * _PER_BLOCK + 3, _BLOCK_STEPS,
    ),
    "two-middle-layers": (
        lambda: generic_net((8, 12, 10, 9, 4), seed=45),
        make_baseline("black", 8, 1.0), 7, 40,
    ),
    "one-sample-blocks": (
        lambda: generic_net((8, 12, 10, 4), seed=46),
        make_baseline("red", 8, 1.0), 3, _IG_BLOCK_ROWS + 44,
    ),
    "baseline-sample": (
        lambda: generic_net((8, 12, 10, 4), seed=47),
        make_baseline("gray", 8, 1.0), 5, 32,
    ),
    "baseline-sample-one-hidden": (
        lambda: generic_net((8, 12, 4), seed=47),
        make_baseline("gray", 8, 1.0), 5, 32,
    ),
}


def _bad_audit_inputs():
    """(error, changed verify_theorem1 arguments) by case: one bad input
    each, then pairs of bad inputs, the first of which is checked
    first. The model takes 4 inputs and ignores the first."""
    wide, nan = np.zeros((3, 5)), np.zeros((3, 4))
    nan[1, 2] = np.nan
    wide_nan = wide.copy()
    wide_nan[1, 2] = np.nan
    huge = np.zeros((3, 4))
    huge[:, 0] = 1e308
    far = np.zeros(4)
    far[0] = -1e308  # x - far overflows in the first coordinate only
    probe_nan = np.array([0.0, np.nan, 0.0, 0.0])
    return {
        "x-too-wide": (DimensionError, dict(x=wide)),
        "probe-too-wide": (DimensionError, dict(baseline=np.zeros(5))),
        "probe-2d": (DimensionError, dict(baseline=np.zeros((1, 4)))),
        "probe-0d": (DimensionError, dict(baseline=np.float64(0.0))),
        "x-1d": (DimensionError, dict(x=np.zeros(4))),
        "x-empty": (DimensionError, dict(x=np.zeros((0, 4)))),
        "tol-zero": (ContractError, dict(tol=0.0)),
        "tol-negative": (ContractError, dict(tol=-1.0)),
        "tol-inf": (ContractError, dict(tol=np.inf)),
        "steps-zero": (ContractError, dict(steps=0)),
        "x-nan": (EvaluationError, dict(x=nan)),
        "probe-nan": (EvaluationError, dict(baseline=probe_nan)),
        "path-overflows": (EvaluationError, dict(x=huge, baseline=far)),
        "x-empty-then-tol": (DimensionError, dict(x=np.zeros((0, 4)), tol=0.0)),
        "x-1d-then-probe": (
            DimensionError, dict(x=np.zeros(4), baseline=np.zeros(5))
        ),
        "tol-then-x-too-wide": (ContractError, dict(x=wide, tol=np.inf)),
        "tol-then-steps": (ContractError, dict(tol=0.0, steps=0)),
        "x-too-wide-then-nan": (DimensionError, dict(x=wide_nan)),
        "probe-too-wide-then-x-nan": (
            DimensionError, dict(x=nan, baseline=np.zeros(5))
        ),
        "x-nan-then-steps": (EvaluationError, dict(x=nan, steps=0)),
        "probe-nan-then-steps": (
            EvaluationError, dict(baseline=probe_nan, steps=0)
        ),
        "steps-then-path-overflows": (
            ContractError, dict(x=huge, baseline=far, steps=0)
        ),
        "x-of-strings": (ContractError, dict(x=np.full((3, 4), "0.5"))),
        "x-ragged": (ContractError, dict(x=[[0.0] * 4, [0.0] * 3, [0.0] * 4])),
        "tol-none": (ContractError, dict(tol=None)),
        "tol-string": (ContractError, dict(tol="1")),
        "probe-string": (ContractError, dict(baseline="black")),
    }


_BAD_AUDIT_INPUTS = _bad_audit_inputs()


class TestVerifyTheorem1:
    @pytest.mark.parametrize("case", list(_AUDIT_CASES))
    def test_matches_per_sample_tape(self, case):
        make_net, b, n, steps = _AUDIT_CASES[case]
        p = make_net()
        x = np.random.default_rng(44).normal(size=(n, p.dims[0]))
        if case.startswith("baseline-sample"):
            x[2] = b
        labels, ref_sums, ref_gaps = _tape_audit(p, x, b, steps)
        report = verify_theorem1(p, x, b, steps=steps)
        np.testing.assert_allclose(report.ig_sums, ref_sums, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            report.logit_gaps, ref_gaps, rtol=0, atol=1e-12
        )
        if case == "block-boundary":
            assert n * steps > _IG_BLOCK_ROWS and n % _PER_BLOCK
            assert len(set(labels[:_PER_BLOCK])) > 1
        if case == "one-sample-blocks":
            assert steps > _IG_BLOCK_ROWS
        if case.startswith("baseline-sample"):
            assert report.ig_sums[2] == 0.0
            ig = integrated_gradients(p, x[2:3], b, labels[2:3], steps)
            assert not ig.any()

    @pytest.mark.parametrize("depth", ["one-hidden", "deeper", "linear"])
    def test_matches_the_public_attributions(self, depth):
        """The report's sums are the attribution function's, bit for bit,
        at the refined argmax of one stacked forward; its gaps are the
        logits' minus the probe's own forward, to rounding."""
        make = {
            "one-hidden": lambda: generic_net((8, 12, 4), seed=61),
            "deeper": lambda: generic_net((8, 12, 10, 4), seed=62),
            "linear": lambda: _linear_net(63),
        }
        p = make[depth]()
        d = p.dims[0]
        b = make_baseline("gray", d, 1.0)
        x = np.random.default_rng(64).normal(size=(9, d))
        z = logits_array(p, np.concatenate([x, b[None, :]]))
        labels = np.argmax(z[:9] - z[9], axis=1) + 1
        # At 128 steps the deeper net's 9 samples take five row blocks.
        assert 9 * 128 > 4 * _IG_BLOCK_ROWS
        for steps in (1, 7, 24, 128):
            report = verify_theorem1(p, x, b, steps=steps)
            ig = integrated_gradients(p, x, b, labels, steps)
            sums = np.add.reduce(ig, axis=1)
            assert report.ig_sums.tobytes() == sums.tobytes()
        logits, base_row = logits_array(p, x), baseline_logits(p, b)
        assert np.array_equal(np.argmax(logits - base_row, axis=1) + 1, labels)
        gaps = logits[np.arange(9), labels - 1] - base_row[labels - 1]
        np.testing.assert_allclose(report.logit_gaps, gaps, rtol=0, atol=1e-15)

    def test_contracts(self):
        p = generic_net((4, 6, 3), seed=24)
        b = make_baseline("black", 4, 1.0)
        x = np.random.default_rng(25).normal(size=(3, 4))
        with pytest.raises(ContractError):
            verify_theorem1(p, x, b, steps=0)
        with pytest.raises(DimensionError):
            verify_theorem1(p, np.zeros((3, 5)), b, steps=4)
        with pytest.raises(DimensionError):  # agree, but not with the model
            verify_theorem1(p, np.zeros((3, 5)), np.zeros(5), steps=4)

    @pytest.mark.parametrize("case", list(_BAD_AUDIT_INPUTS))
    def test_bad_inputs_raise_in_order(self, case):
        """Each bad input raises the package's error class, and where
        two inputs are bad, the one checked first decides: the batch's
        shape, tol, the widths, the forward's finiteness check, steps,
        and last the path's own finiteness."""
        p = generic_net((4, 6, 3), seed=24)
        p.weights[0][0] = 0.0  # a huge first coordinate leaves z finite
        args = dict(
            x=np.random.default_rng(25).normal(size=(3, 4)),
            baseline=make_baseline("black", 4, 1.0),
            steps=4,
            tol=1e-3,
        )
        error, changes = _BAD_AUDIT_INPUTS[case]
        args.update(changes)
        with np.errstate(over="ignore"), pytest.raises(error):
            verify_theorem1(p, **args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["sample", "baseline"])
    def test_non_finite_path_raises(self, where, bad):
        p = generic_net((4, 6, 3), seed=24)
        b = make_baseline("black", 4, 1.0)
        x = np.random.default_rng(25).normal(size=(3, 4))
        if where == "sample":
            x[1, 2] = bad
        else:
            b[2] = bad
        with pytest.raises(EvaluationError):
            verify_theorem1(p, x, b, steps=4)

    def test_leaves_parameter_grads_clean(self):
        """Parameters are arrays, with no grad slot: the audit leaves
        them bitwise unchanged."""
        p = generic_net((4, 6, 3), seed=26)
        before = copy.deepcopy(p)
        b = make_baseline("black", 4, 1.0)
        verify_theorem1(p, np.ones((5, 4)), b, steps=8)
        for t, t0 in zip(p.tensors(), before.tensors()):
            assert t.tobytes() == t0.tobytes()

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
            weights=[rng.normal(size=(5, 3))],
            biases=[rng.normal(size=3)],
        )
        b = make_baseline("white", 5, 0.5)
        report = verify_theorem1(p, rng.normal(size=(6, 5)), b, steps=1)
        assert report.max_residual < 1e-10

    def test_rejects_empty_batch(self):
        p = generic_net((4, 6, 3), seed=24)
        b = make_baseline("black", 4, 1.0)
        with pytest.raises(DimensionError):
            verify_theorem1(p, np.zeros((0, 4)), b, steps=4)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        """At or below zero, or NaN, no report could pass; at inf every
        report would."""
        p = generic_net((4, 6, 3), seed=24)
        b = make_baseline("black", 4, 1.0)
        with pytest.raises(ContractError, match="tol"):
            verify_theorem1(p, np.ones((2, 4)), b, steps=4, tol=tol)
