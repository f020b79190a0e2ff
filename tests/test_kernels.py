"""Hand values and edge cases of the compute kernels."""

from __future__ import annotations

import numpy as np

from lcgclab import kernels as K


class TestKernelValues:
    def test_matmul_hand_value(self):
        out = K.matmul(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]])
        )
        np.testing.assert_array_equal(out, [[17.0], [39.0]])

    def test_transpose_variants_match_numpy(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 5))
        b = rng.normal(size=(4, 5))
        np.testing.assert_allclose(K.matmul_tn(a, g), a.T @ g, atol=1e-12)
        np.testing.assert_allclose(K.matmul_nt(g, b), g @ b.T, atol=1e-12)

    def test_softmax_rows_extreme_values(self):
        z = np.array([[800.0, 0.0, -800.0], [-1e4, -1e4, -1e4]])
        p = K.softmax_rows(z)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(p[1], [1 / 3] * 3, atol=1e-15)

    def test_log_softmax_rows_extreme_values(self):
        z = np.array([[800.0, 0.0]])
        ls = K.log_softmax_rows(z)
        assert np.isfinite(ls).all()
        np.testing.assert_allclose(ls[0, 1], -800.0, rtol=1e-12)

    def test_relu_kills_negatives_only(self):
        z = np.array([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(K.relu(z), [[0.0, 0.0, 2.5]])
        g = np.array([[5.0, 5.0, 5.0]])
        np.testing.assert_array_equal(K.relu_vjp(g, z > 0.0), [[0.0, 0.0, 5.0]])

    def test_relu_vjp_multiplies_by_the_mask(self):
        """relu_vjp(g, x > 0) is g * (x > 0) bitwise, for x the ReLU's
        input or its output (the same mask), and g holding -0.0, inf and
        NaN, which a masked-out entry multiplies by 0 like any other."""
        x = np.array([[-2.0, -0.0, 0.0, 1e-300, 3.0, -np.inf, np.inf, 7.0]])
        for g in (
            np.full(x.shape, -0.0),
            np.full(x.shape, np.inf),
            np.full(x.shape, -np.inf),
            np.full(x.shape, np.nan),
            np.array([[-0.0, np.inf, np.nan, -1.0, np.nan, -0.0, -np.inf, 2.0]]),
        ):
            for h in (x, K.relu(x)):
                with np.errstate(invalid="ignore"):  # inf * 0
                    want = g * (h > 0.0)
                    got = K.relu_vjp(g, h > 0.0)
                assert got.tobytes() == want.tobytes()

    def test_out_gives_the_same_bits(self):
        """With ``out`` every kernel writes its result there and returns
        it, bitwise equal to the allocating call; the elementwise ones
        may write into their first operand."""
        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(4, 5))
        g = rng.normal(size=(7, 5))
        v = rng.normal(size=5)
        cases = [
            (K.matmul, (a, b)),
            (K.matmul_tn, (a, g)),
            (K.matmul_nt, (g, b)),
            (K.sum_rows, (g,)),
            (K.add_rowvec, (g, v)),
            (K.relu, (g,)),
            (K.relu_vjp, (g, g < 0.0)),
        ]
        for kernel, args in cases:
            ref = kernel(*args)
            out = np.full_like(ref, np.nan)
            assert kernel(*args, out=out) is out
            assert out.tobytes() == ref.tobytes(), kernel.__name__
        for kernel, args in cases[4:]:
            first = args[0].copy()
            ref = kernel(*args)
            assert kernel(first, *args[1:], out=first) is first
            assert first.tobytes() == ref.tobytes(), kernel.__name__

    def test_backend_name_is_numpy(self):
        assert K.backend_name() == "numpy"
