"""Bit pins of the lean expressions of the training step and the audit.

Each test keeps the plain expression the step's code replaces as a
test-local reference and checks that the package's version gives the
same bits (``np.array_equal``, plus the sign bit wherever a zero can
occur), so a later edit cannot trade exactness for speed unnoticed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lcgclab import kernels as K
from lcgclab.data import (
    AugmentConfig,
    LongTailSpec,
    sample_minibatch,
    strong_aug,
    synthesize,
    weak_aug,
)
from lcgclab.debias import (
    GradientVector,
    integrated_gradients,
    kl_consistency_terms,
    lcgc_combine,
)
from lcgclab.losses import pseudo_label
from lcgclab.model import ModelParams, init_mlp
from lcgclab.tensor import cross_entropy_terms


def same_bits(a, b) -> bool:
    """Equal values, NaN where NaN, and equal signs on every non-NaN
    entry (so +0.0 and -0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
        return False
    seen = ~np.isnan(a)
    return np.array_equal(np.signbit(a[seen]), np.signbit(b[seen]))


# ------------------------------------------------------------ references


def ref_log_softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def ref_softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def ref_cross_entropy_terms(logits, target, weights=None, g=1.0):
    """The loss and the logit adjoint of g times it: the one-hot formula
    for hard labels, soft rows as they are."""
    n, C = logits.shape
    if target.ndim == 1:
        t = np.zeros((n, C))
        t[np.arange(n), target - 1] = 1.0
    else:
        t = target
    w = np.ones(n) if weights is None else weights
    lsm = ref_log_softmax_rows(logits)
    loss = -float((w * (t * lsm).sum(axis=1)).sum()) / n
    sm = np.exp(lsm)
    t_mass = t.sum(axis=1, keepdims=True)
    return loss, (sm * t_mass - t) * (w[:, None] * (float(g) / n))


def ref_strong_aug(x, cfg, rng):
    n, d = x.shape
    out = x + cfg.sigma_strong * rng.normal(size=(n, d))
    k = int(cfg.mask_fraction * d + 0.5)
    if k > 0:
        order = np.argsort(rng.random(size=(n, d)), axis=1)[:, :k]
        out[np.arange(n)[:, None], order] = 0.0
    return out


def ref_kl_vjp(a, b):
    lp, lq = ref_log_softmax_rows(a), ref_log_softmax_rows(b)
    p, q = np.exp(lp), np.exp(lq)
    diff = lp - lq
    row = np.einsum("ij,ij->i", p, diff)
    s = 1.0 / a.shape[0]
    return (p * (diff - row[:, None])) * s, (q - p) * s


def ref_active_counts(u, v, steps):
    """Active path points of each unit of a one-hidden-layer net, one
    nested ``where`` per sign of the slope v."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -u * steps / v
    return np.where(
        v > 0,
        steps - np.floor(t).clip(0, steps),
        np.where(v < 0, (np.ceil(t) - 1).clip(0, steps), (u > 0) * steps),
    )


# A zero-sum tie in the max, NaN, both infinities, a log-probability that
# is exactly 0.0 and an overflow of z - max to -inf.
SPECIAL_ROWS = np.array(
    [
        [0.0, -0.0, -1.0],
        [-0.0, 0.0, -1.0],
        [-0.0, -0.0, -3.0],
        [0.0, -1000.0, -2000.0],
        [np.nan, 1.0, 2.0],
        [np.inf, 1.0, 2.0],
        [-np.inf, 1.0, 2.0],
        [-np.inf, -np.inf, -np.inf],
        [np.inf, np.inf, 0.0],
        [1e308, -1e308, 0.0],
    ]
)


def random_rows():
    rng = np.random.default_rng(5)
    shapes = [(1, 2), (5, 3), (64, 10), (128, 10), (129, 10), (33, 257)]
    scales = (1, 3, 5, 30, 1, 2)
    return [rng.normal(scale=s, size=shape) for shape, s in zip(shapes, scales)]


class TestSoftmaxKernels:
    @pytest.mark.parametrize("z", [*random_rows(), SPECIAL_ROWS])
    def test_kernels_match_the_axis_1_max(self, z):
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(K.log_softmax_rows(z), ref_log_softmax_rows(z))
            assert same_bits(K.softmax_rows(z), ref_softmax_rows(z))
            assert same_bits(K.row_max(z), z.max(axis=1))

    def test_kernels_leave_their_input_alone(self):
        z = random_rows()[3]
        before = z.copy()
        K.log_softmax_rows(z)
        K.softmax_rows(z)
        assert same_bits(z, before)

    @pytest.mark.parametrize("z", [*random_rows(), SPECIAL_ROWS])
    def test_probs_from_the_log_softmax_pass_are_softmax_rows(self, z):
        probs = np.full(z.shape, 7.0)
        with np.errstate(invalid="ignore", over="ignore"):
            lsm = K.log_softmax_rows(z, probs=probs)
            assert same_bits(lsm, K.log_softmax_rows(z))
            assert same_bits(probs, K.softmax_rows(z))

    @pytest.mark.parametrize("cut", [(1, 2), (2, 5), (4, 9), (128, 129)])
    def test_a_stack_gives_each_block_its_own_rows(self, cut):
        """One pass over the stacked rows of a forward gives every block
        the log-probabilities (and probabilities) of a pass over that
        block alone; the stack mixes special rows, ties included, into
        random ones."""
        rng = np.random.default_rng(21)
        z = rng.normal(scale=3.0, size=(193, 3))
        z[::19][: len(SPECIAL_ROWS)] = SPECIAL_ROWS
        z[cut[0] - 1] = SPECIAL_ROWS[0]  # a tie of zeros at a block edge
        probs = np.empty(z.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            lsm = K.log_softmax_rows(z, probs=probs)
            for rows in np.split(np.arange(193), cut):
                block = np.ascontiguousarray(z[rows])
                assert same_bits(lsm[rows], K.log_softmax_rows(block))
                assert same_bits(probs[rows], K.softmax_rows(block))

    def test_pseudo_label_keeps_the_probs_it_is_given(self):
        z = np.random.default_rng(22).normal(size=(128, 10))
        probs = np.empty(z.shape)
        K.log_softmax_rows(z, probs=probs)
        want = ref_softmax_rows(z)
        for tau in (0.0, 0.3):
            got = pseudo_label(probs, tau)
            assert got.probs is probs and same_bits(got.probs, want)
            assert np.array_equal(got.labels, np.argmax(want, axis=1) + 1)
            assert np.array_equal(got.mask, want.max(axis=1) >= tau)

    def test_pseudo_label_confidence_is_the_mass_at_the_label(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(128, 10))
        z[:4] = 1.5  # all-way ties: label 1, confidence 1/C
        z[4, 2:4] = 9.0  # a two-way tie at the top
        for tau in (0.0, 0.3):
            pb = pseudo_label(K.softmax_rows(z), tau)
            probs = ref_softmax_rows(z)
            labels = np.argmax(probs, axis=1).astype(np.int64) + 1
            conf = probs[np.arange(z.shape[0]), labels - 1]
            assert same_bits(pb.probs, probs)
            assert np.array_equal(pb.labels, labels)
            assert np.array_equal(pb.mask, conf >= tau)


# The factors the step scales a loss's adjoint by: 1 for the bias KL
# and the supervised loss, the consistency weight (every-key's 2) for
# the consistency loss.
SCALES = (1.0, 0.75, 2.0)


class TestHardLabelCrossEntropy:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 40.0, 800.0])
    def test_matches_the_one_hot_formula(self, weighted, scale):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=scale, size=(64, 10))
        y = rng.integers(1, 11, size=64)
        w = (rng.random(64) < 0.6).astype(np.float64) if weighted else None
        for g in SCALES:
            loss, adj = cross_entropy_terms(
                K.log_softmax_rows(z), y, weights=w, scale=g
            )
            ref_loss, ref_adj = ref_cross_entropy_terms(z, y, w, g)
            assert loss.hex() == ref_loss.hex()
            assert same_bits(adj, ref_adj)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_soft_targets_match_the_formula(self, weighted):
        rng = np.random.default_rng(18)
        z = rng.normal(size=(12, 5))
        soft = ref_softmax_rows(rng.normal(size=(12, 5)))
        w = rng.random(12) if weighted else None
        for g in SCALES:
            loss, adj = cross_entropy_terms(
                K.log_softmax_rows(z), soft, weights=w, scale=g
            )
            ref_loss, ref_adj = ref_cross_entropy_terms(z, soft, w, g)
            assert loss.hex() == ref_loss.hex()
            assert same_bits(adj, ref_adj)

    def test_a_minus_inf_logit_gives_a_nan_loss(self):
        z = np.array([[0.5, -np.inf, 1.0], [2.0, 1.0, 0.0]])
        y = np.array([1, 3])
        with np.errstate(invalid="ignore"):  # 0 * -inf in the one-hot sum
            loss, adj = cross_entropy_terms(K.log_softmax_rows(z), y)
            ref_loss, ref_adj = ref_cross_entropy_terms(z, y)
        assert math.isnan(loss) and math.isnan(ref_loss)
        assert same_bits(adj, ref_adj)

    def test_an_overflowing_row_gives_a_nan_loss(self):
        # z - max overflows to -inf: not finite, so no loss.
        z = np.array([[1e308, -1e308], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            loss, _ = cross_entropy_terms(K.log_softmax_rows(z), np.array([1, 2]))
        assert math.isnan(loss)

    @pytest.mark.parametrize(
        "row,label,weight,finite",
        [
            ([0.5, -np.inf, 1.0], 1, 1.0, False),  # -inf off the label
            ([0.5, -np.inf, 1.0], 2, 1.0, False),  # -inf at the label: +inf
            ([0.5, np.nan, 1.0], 1, 1.0, False),
            ([0.5, -np.inf, 1.0], 1, 0.0, False),  # weighted out, still counted
            ([0.0, -1000.0, -2000.0], 3, 1.0, True),
        ],
    )
    def test_the_loss_is_finite_only_on_finite_log_probabilities(
        self, row, label, weight, finite
    ):
        z = np.array([row, [2.0, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            loss, _ = cross_entropy_terms(
                K.log_softmax_rows(z),
                np.array([label, 3]),
                weights=np.array([weight, 1.0]),
            )
        assert math.isfinite(loss) == finite


class TestAugmentation:
    def test_strong_aug_matches_argsort_masks(self):
        x = np.random.default_rng(8).normal(size=(128, 32))
        for cfg in (
            AugmentConfig(),
            AugmentConfig(sigma_strong=0.0, mask_fraction=0.5),
            AugmentConfig(mask_fraction=0.0),
        ):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            assert same_bits(strong_aug(x, cfg, a), ref_strong_aug(x, cfg, b))
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("tie", ["at_kth", "below_kth"])
    def test_strong_aug_with_tied_uniforms(self, tie):
        n, d = 6, 8  # k = 2 at the default mask fraction
        r = np.random.default_rng(10).random((n, d))
        if tie == "at_kth":
            r[2, [1, 4, 6]] = 1e-3  # the three smallest tie: 3 > k marked
        else:
            r[3, [0, 5]] = 1e-3  # the two smallest tie; the count stays k
        x = np.random.default_rng(11).normal(size=(n, d))

        # normal(size=) and standard_normal(out=) draw the same stream
        # (TestStandardNormal), so both count as one Gaussian draw.
        class Stub:
            def __init__(self):
                self.calls = []

            def normal(self, size):
                self.calls.append(("gaussian", size))
                return np.linspace(-1.0, 1.0, n * d).reshape(size)

            def standard_normal(self, *, out):
                out[...] = self.normal(out.shape)
                return out

            def random(self, size):
                self.calls.append(("random", size))
                return r.copy()

        stub, ref_stub = Stub(), Stub()
        got = strong_aug(x, AugmentConfig(), stub)
        want = ref_strong_aug(x, AugmentConfig(), ref_stub)
        assert same_bits(got, want)
        draws = [("gaussian", (n, d)), ("random", (n, d))]
        assert stub.calls == ref_stub.calls == draws

    def test_weak_aug_matches_the_sum(self):
        x = np.random.default_rng(12).normal(size=(64, 32))
        x[0, :3] = [-0.0, 0.0, -0.0]
        for cfg in (AugmentConfig(), AugmentConfig(sigma_weak=0.0)):
            a, b = np.random.default_rng(13), np.random.default_rng(13)
            got = weak_aug(x, cfg, a)
            assert same_bits(got, x + cfg.sigma_weak * b.normal(size=x.shape))
            assert a.bit_generator.state == b.bit_generator.state

    # The view shapes of the default, the wide and the every-key configs.
    @pytest.mark.parametrize(
        "shape", [(128, 32), (64, 32), (256, 64), (128, 64), (48, 12), (16, 12)]
    )
    def test_standard_normal_draws_what_normal_draws(self, shape):
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            out = np.empty(shape)
            got = a.standard_normal(out=out)
            assert got is out
            assert same_bits(out, b.normal(size=shape))
            assert a.bit_generator.state == b.bit_generator.state

    def test_views_drawn_into_out_match_fresh_ones(self):
        x = np.random.default_rng(23).normal(size=(64, 32))
        x[0, :3] = [-0.0, 0.0, -0.0]
        cfg = AugmentConfig()
        for aug in (weak_aug, strong_aug):
            a, b = np.random.default_rng(24), np.random.default_rng(24)
            stack = np.full((70, 32), 5.0)
            got = aug(x, cfg, a, out=stack[3:67])
            assert np.shares_memory(got, stack)
            assert same_bits(got, aug(x, cfg, b))
            assert a.bit_generator.state == b.bit_generator.state
            assert (stack[:3] == 5.0).all() and (stack[67:] == 5.0).all()

    def test_sample_minibatch_matches_fancy_indexing(self):
        spec = LongTailSpec(
            classes=4, dim=6, n_max_labeled=30, n_max_unlabeled=40,
            gamma_labeled=5.0, gamma_unlabeled=5.0,
        )
        ds = synthesize(spec)
        a, b = np.random.default_rng(14), np.random.default_rng(14)
        xl, yl, xu = sample_minibatch(ds, 16, 3, a)
        li = b.integers(0, ds.labeled_x.shape[0], size=16)
        ui = b.integers(0, ds.unlabeled_x.shape[0], size=48)
        want = (ds.labeled_x[li], ds.labeled_y[li], ds.unlabeled_x[ui])
        for got, want in zip((xl, yl, xu), want):
            assert got.dtype == want.dtype and same_bits(got, want)
            assert got.flags.c_contiguous


class TestUpdateGlue:
    @pytest.mark.parametrize("n", [1, 7, 8, 330, 2762, 8192, 8193, 100_001])
    def test_gradient_norm_matches_linalg(self, n):
        """Up to 8192 elements, the norm is ``np.linalg.norm``'s and the
        dots are ``@``'s. Past that, OpenBLAS may split one ``@`` across
        its threads, so the dots are the in-order sums of the dots of
        8192-element chunks."""

        def chunked(a, b):
            total = 0.0
            for i in range(0, n, 8192):
                total += float(a[i : i + 8192] @ b[i : i + 8192])
            return total

        rng = np.random.default_rng(n)
        for scale in (1e-150, 1.0, 1e150):
            v = rng.normal(scale=scale, size=n)
            w = rng.normal(scale=scale, size=n)
            g = GradientVector(v)
            assert g.sqnorm.hex() == chunked(v, v).hex()
            assert g.norm.hex() == math.sqrt(chunked(v, v)).hex()
            assert g.dot(GradientVector(w)).hex() == chunked(v, w).hex()
            if n <= 8192:
                assert g.norm.hex() == float(np.linalg.norm(v)).hex()
                assert g.sqnorm.hex() == float(v @ v).hex()

    @pytest.mark.parametrize("dims", [(32, 64, 10), (64, 256, 256, 10)])
    def test_update_scaled_in_place_matches_per_tensor_steps(self, dims):
        rng = np.random.default_rng(25)
        p, ref = init_mlp(dims, seed=25), init_mlp(dims, seed=25)
        for lr in (0.2, 0.05, 1e6):
            flat = rng.normal(size=p.n_params)
            for t, u in zip(ref.tensors(), ref.views(flat.copy())):
                t -= lr * u
            p.apply_update(flat, lr)
            for got, want in zip(p.tensors(), ref.tensors()):
                assert same_bits(got, want)

    def test_combine_matches_its_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            b, d = rng.normal(size=(2, 500))
            lam = float(rng.random() * 2)
            got = lcgc_combine(GradientVector(b), GradientVector(d), lam).values
            dot = float(d @ b)
            want = b if dot >= 0.0 else b + lam * dot / float(d @ d) * d
            assert same_bits(got, want)

    @pytest.mark.parametrize("n", [8, 8192, 85_002])
    def test_combine_under_conflict_matches_the_sum(self, n):
        """The conflicting combine builds ``coeff * g_d`` and adds
        ``g_b`` into it: the bits of ``g_b + coeff * g_d``, signed zeros
        included."""
        rng = np.random.default_rng(27 + n)
        for lam in (0.0, 0.5, 1.4):
            d = rng.normal(size=n)
            b = rng.normal(scale=0.5, size=n) - d
            d[:2], b[:4] = (0.0, -0.0), (0.0, -0.0, 0.0, -0.0)
            g_b, g_d = GradientVector(b), GradientVector(d)
            dot = g_d.dot(g_b)
            assert dot < 0.0
            want = b + lam * dot / g_d.sqnorm * d
            got = lcgc_combine(g_b, g_d, lam)
            assert same_bits(got.values, want)
            assert got.sqnorm.hex() == GradientVector(want).sqnorm.hex()

    def test_mask_rate_matches_the_mean(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 128, 1000):
            mask = rng.random(n) < 0.37
            assert (np.count_nonzero(mask) / n).hex() == float(mask.mean()).hex()


class TestKlValue:
    @pytest.mark.parametrize("shape", [(1, 2), (7, 3), (128, 10), (1000, 4)])
    def test_value_is_the_clamped_mean(self, shape):
        rng = np.random.default_rng(26)
        a, b = rng.normal(scale=2.0, size=(2, *shape))
        b[0] = a[0]  # a zero row, clamped from a hair below zero or not
        lp, lq = ref_log_softmax_rows(a), ref_log_softmax_rows(b)
        row = np.einsum("ij,ij->i", np.exp(lp), lp - lq)
        want = float(np.maximum(row, 0.0).mean())
        got = kl_consistency_terms(K.log_softmax_rows(a), K.log_softmax_rows(b))
        assert got[0].hex() == want.hex()

    def test_adjoints_match_the_formula(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=(2, 12, 5))
        _, ga, gb = kl_consistency_terms(K.log_softmax_rows(a), K.log_softmax_rows(b))
        ref_ga, ref_gb = ref_kl_vjp(a, b)
        assert same_bits(ga, ref_ga) and same_bits(gb, ref_gb)


class TestActivePathCounts:
    """The one-hidden-layer audit scales the adjoint rows by the count of
    each unit's active path points; the array it hands ``matmul_nt`` must
    be the nested-``where`` count's, bit for bit."""

    @pytest.mark.parametrize("steps", [1, 2, 7, 128, 1000])
    def test_count_matches_the_nested_where(self, monkeypatch, steps):
        rng = np.random.default_rng(20 + steps)
        n, d, h, c = 16, 3, 24, 5
        # The first layer's two products, I W1 and (x - I) W1, are
        # prescribed: a BLAS product never returns -0.0.
        u0 = rng.normal(size=(1, h))
        u0[0, :4] = 0.0, -0.0, 0.5, -0.5
        v = rng.normal(scale=rng.choice([0.01, 1.0, 100.0], size=(n, 1)), size=(n, h))
        v[0], v[1] = 0.0, -0.0
        v[2], v[3] = 1e-320, -1e-320  # t overflows to +-inf
        v[4], v[5] = 0.5, -0.5  # with u = -+0.5, the crossing is k = steps
        products = iter([u0, v])

        def prescribed(a, b, out=None):
            if out is None:
                return next(products).copy()
            out[...] = next(products)
            return out

        monkeypatch.setattr(K, "matmul", prescribed)
        seen = []
        inner = K.matmul_nt

        def spy(a, b, **kw):
            seen.append(a.copy())
            return inner(a, b, **kw)

        monkeypatch.setattr(K, "matmul_nt", spy)
        w1, w2 = rng.normal(size=(d, h)), rng.normal(size=(h, c))
        b1 = np.zeros(h)
        p = ModelParams(dims=(d, h, c), weights=[w1, w2], biases=[b1, np.zeros(c)])
        labels = rng.integers(1, c + 1, size=n)
        integrated_gradients(p, rng.normal(size=(n, d)), np.zeros(d), labels, steps)

        u = u0 + b1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = -u * steps / v
        flat = v == 0
        assert (flat & np.signbit(v)).any() and (flat & ~np.signbit(v)).any()
        assert (u == 0).any() and (np.isinf(t) & ~flat).any()
        assert (t == steps).any()
        rows = w2.T[labels - 1]
        [got] = seen
        assert same_bits(got, rows * (ref_active_counts(u, v, steps) / steps))
