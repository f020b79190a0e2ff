"""Autodiff core: op values, tape semantics, and gradient correctness."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import finite_diff_grad, relative_error
from lcgclab.errors import (
    ContractError,
    DimensionError,
    EvaluationError,
    LabelError,
)
from lcgclab.tensor import (
    Tape,
    Tensor,
    add,
    add_rowvec,
    backward,
    cross_entropy,
    flatten_grads,
    log_softmax,
    matmul,
    mul,
    relu,
    scale,
    softmax,
    sum_all,
    zero_grads,
)


class TestTensorBasics:
    def test_leaf_copies_and_is_float64(self):
        src = np.array([[1, 2], [3, 4]], dtype=np.int32)
        t = Tensor(src)
        assert t.data.dtype == np.float64
        src[0, 0] = 99
        assert t.data[0, 0] == 1.0

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(EvaluationError):
            Tensor([1.0, np.inf])
        with pytest.raises(EvaluationError):
            Tensor([[np.nan]])

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()


class TestOpValues:
    def test_matmul_hand_value(self):
        """[[1,2],[3,4]] @ [[5],[6]] = [[17],[39]]."""
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            matmul([[1.0, 2.0]], [[1.0, 2.0]])
        with pytest.raises(DimensionError):
            matmul([1.0, 2.0], [[1.0], [2.0]])

    def test_softmax_oracle(self):
        """Direct exp-normalization of the one row [1, 2, 3]."""
        z = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softmax(z).data, expected, rtol=1e-14)
        assert softmax(z).data.shape == (1, 3)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=5.0, size=(40, 6))
        p = softmax(z).data
        np.testing.assert_allclose(p.sum(axis=1), np.ones(40), atol=1e-12)
        assert (p > 0).all()

    def test_softmax_extreme_logits_stable(self):
        p = softmax(np.array([[1000.0, 0.0, -1000.0]])).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-12)

    def test_softmax_needs_two_classes(self):
        with pytest.raises(DimensionError):
            softmax(np.array([[1.0]]))
        for op in (softmax, log_softmax):  # logits are (n, C), never 1-D
            with pytest.raises(DimensionError):
                op(np.array([1.0, 2.0, 3.0]))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(10, 5))
        np.testing.assert_allclose(
            log_softmax(z).data, np.log(softmax(z).data), atol=1e-12
        )


class TestCrossEntropy:
    def test_logit_oracle(self):
        """-log_softmax([1,2,3])[2] = 0.4076059644443806."""
        out = cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([3]))
        np.testing.assert_allclose(out.item(), 0.4076059644443806, rtol=1e-13)

    def test_uniform_logits_give_log_c(self):
        out = cross_entropy(np.zeros((4, 10)), np.array([1, 4, 7, 10]))
        np.testing.assert_allclose(out.item(), np.log(10.0), rtol=1e-13)

    def test_soft_targets_match_manual(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 4))
        t = rng.dirichlet(np.ones(4), size=5)
        lsm = np.log(softmax(z).data)
        expected = -(t * lsm).sum(axis=1).mean()
        np.testing.assert_allclose(
            cross_entropy(z, t).item(), expected, rtol=1e-12
        )

    def test_weights_and_denominator(self):
        """The weighted sum is divided by all n rows: a row weighted 0
        still counts in the mean."""
        z = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 3.0], [0.5, 0.0]])
        y = np.array([1, 2, 1, 2])
        w = np.array([1.0, 0.0, 0.5, 0.0])
        lsm = np.log(softmax(z).data)
        expected = -(lsm[0, 0] + 0.5 * lsm[2, 0]) / 4.0
        out = cross_entropy(z, y, weights=w)
        np.testing.assert_allclose(out.item(), expected, rtol=1e-13)

    def test_label_range_errors(self):
        with pytest.raises(LabelError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 1]))
        with pytest.raises(LabelError):
            cross_entropy(np.zeros((2, 3)), np.array([1, 4]))

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            cross_entropy(np.zeros((0, 3)), np.array([], dtype=np.int64))
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((2, 3)), np.array([1, 2]), weights=np.ones(3))
        with pytest.raises(DimensionError):
            cross_entropy(np.array([1.0, 2.0, 3.0]), np.array([3]))


class TestTapeSemantics:
    def test_no_recording_outside_tape(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = scale(a, 2.0)
        assert out.node is None and not out.requires_grad

    def test_backward_requires_scalar_on_tape(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            vec = scale(a, 2.0)
            loss = sum_all(vec)
        with pytest.raises(ContractError):
            backward(vec)
        off_tape = Tensor(1.0, requires_grad=True)
        with pytest.raises(ContractError):
            backward(off_tape)
        backward(loss)
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = sum_all(scale(a, 2.0))
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(a.grad, [4.0])

    def test_unrelated_ops_contribute_nothing(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            loss = sum_all(scale(a, 3.0))
            _side_branch = scale(a, 100.0)  # recorded after the loss
        backward(loss)
        np.testing.assert_array_equal(a.grad, [[3.0, 3.0]])

    def test_backward_linearity(self):
        """grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2)."""
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ca, cb = 0.7, -1.3

        def losses():
            z = matmul(x, w)
            return sum_all(relu(z)), sum_all(mul(z, z))

        zero_grads([x, w])
        with Tape():
            l1, l2 = losses()
            combo = add(scale(l1, ca), scale(l2, cb))
        backward(combo)
        g_combo = flatten_grads([x, w])

        zero_grads([x, w])
        with Tape():
            l1, _ = losses()
        backward(l1)
        g1 = flatten_grads([x, w])
        zero_grads([x, w])
        with Tape():
            _, l2 = losses()
        backward(l2)
        g2 = flatten_grads([x, w])

        np.testing.assert_allclose(g_combo, ca * g1 + cb * g2, atol=1e-10)

    def test_diamond_reuse_accumulates(self):
        """A tensor feeding two consumers gets the sum of both adjoints."""
        a = Tensor([[2.0]], requires_grad=True)
        with Tape():
            b = scale(a, 3.0)
            loss = sum_all(add(b, b))
        backward(loss)
        np.testing.assert_array_equal(a.grad, [[6.0]])


class TestGradientsAgainstFiniteDifferences:
    def test_composite_network_gradients(self):
        """Random 2-layer nets with every op in the library: rel err < 1e-5.

        Biases are drawn nonzero so no loss sits at a symmetric
        stationary point, and batches are redrawn if any ReLU
        pre-activation lands within 1e-3 of its kink, where the
        finite-difference oracle itself is invalid.
        """
        rng = np.random.default_rng(42)
        for _ in range(10):
            d, h, c = rng.integers(2, 5), rng.integers(3, 6), rng.integers(2, 5)
            n = int(rng.integers(2, 5))
            w1 = Tensor(rng.normal(size=(d, h)), requires_grad=True)
            b1 = Tensor(rng.normal(size=h), requires_grad=True)
            w2 = Tensor(rng.normal(size=(h, c)), requires_grad=True)
            b2 = Tensor(rng.normal(size=c), requires_grad=True)
            params = [w1, b1, w2, b2]
            while True:
                x = rng.normal(size=(n, d))
                if np.abs(x @ w1.data + b1.data).min() > 1e-3:
                    break
            y = rng.integers(1, c + 1, size=n)

            def f():
                z = add_rowvec(matmul(Tensor(x), w1), b1)
                z = relu(z)
                z = add_rowvec(matmul(z, w2), b2)
                return cross_entropy(z, y)

            zero_grads(params)
            with Tape():
                loss = f()
            backward(loss)
            g = flatten_grads(params)
            fd = finite_diff_grad(lambda: f().item(), [t.data for t in params])
            assert relative_error(g, fd) < 1e-5

    def test_softmax_and_elementwise_gradients(self):
        rng = np.random.default_rng(43)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        m = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def f():
            return sum_all(mul(softmax(a), mul(m, m)))

        zero_grads([a, m])
        with Tape():
            loss = f()
        backward(loss)
        g = flatten_grads([a, m])
        fd = finite_diff_grad(lambda: f().item(), [a.data, m.data])
        assert relative_error(g, fd) < 1e-5


class TestFiniteDiff:
    def test_hand_quadratic(self):
        """d/dw of ||w||^2 at (1, 2) is (2, 4)."""
        w = np.array([1.0, 2.0])
        fd = finite_diff_grad(lambda: float((w**2).sum()), [w])
        np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)

    def test_strided_view_is_displaced_in_place(self):
        """A transposed view is not reshaped into a copy: f sees every
        step, and the gradient comes back in the view's C order."""
        w = np.arange(6.0).reshape(2, 3)
        fd = finite_diff_grad(lambda: float((w**2).sum()), [w.T])
        np.testing.assert_allclose(fd, 2.0 * w.T.ravel(), atol=1e-6)

    def test_restores_parameters(self):
        w = np.array([1.0, 2.0])
        finite_diff_grad(lambda: float(w.sum()), [w])
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_nonfinite_evaluation_raises(self):
        w = np.array([1e308])
        with np.errstate(over="ignore"), pytest.raises(EvaluationError):
            finite_diff_grad(lambda: float(np.exp(w[0])), [w])

    def test_bad_step_rejected(self):
        with pytest.raises(ContractError):
            finite_diff_grad(lambda: 0.0, [np.array([1.0])], step=0.0)
