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
        np.testing.assert_array_equal(K.relu_vjp(g, z), [[0.0, 0.0, 5.0]])

    def test_backend_name_is_numpy(self):
        assert K.backend_name() == "numpy"
