"""MLP parameters: initialization, forward pass, prediction, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from lcgclab.errors import ContractError, DimensionError
from lcgclab.fileio import write_container
from lcgclab.model import (
    ModelParams,
    forward_logits,
    init_mlp,
    load_checkpoint,
    logits_array,
    predict,
    predict_batch,
    save_checkpoint,
)
from lcgclab.tensor import Tensor


class TestInit:
    def test_shapes_and_param_count(self):
        p = init_mlp((32, 64, 10), seed=0)
        assert p.dims == (32, 64, 10)
        assert [w.data.shape for w in p.weights] == [(32, 64), (64, 10)]
        assert [b.data.shape for b in p.biases] == [(64,), (10,)]
        assert p.n_params == 32 * 64 + 64 + 64 * 10 + 10

    def test_biases_start_at_zero(self):
        p = init_mlp((8, 16, 3), seed=1)
        for b in p.biases:
            np.testing.assert_array_equal(b.data, 0.0)

    def test_weight_scale_tracks_fan_in(self):
        """He initialization: std approximately sqrt(2 / fan_in)."""
        p = init_mlp((200, 300, 5), seed=2)
        w1 = p.weights[0].data
        assert abs(w1.std() - np.sqrt(2.0 / 200)) < 0.003
        assert abs(w1.mean()) < 0.003

    def test_deterministic_per_seed(self):
        a = init_mlp((6, 8, 4), seed=5)
        b = init_mlp((6, 8, 4), seed=5)
        c = init_mlp((6, 8, 4), seed=6)
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta.data, tb.data)
        assert not np.array_equal(a.weights[0].data, c.weights[0].data)

    def test_tensor_order_interleaves_layers(self):
        p = init_mlp((4, 6, 6, 3), seed=3)
        ts = p.tensors()
        assert len(ts) == 6
        assert ts[0] is p.weights[0] and ts[1] is p.biases[0]
        assert ts[4] is p.weights[2] and ts[5] is p.biases[2]

    def test_rejects_degenerate_dims(self):
        with pytest.raises(DimensionError):
            init_mlp((8,), seed=0)
        with pytest.raises(DimensionError):
            init_mlp((8, 0, 3), seed=0)


class TestForward:
    def test_zero_input_at_init_gives_zero_logits(self):
        """Zero biases make the all-zeros input produce all-zero logits."""
        p = init_mlp((5, 7, 3), seed=4)
        out = logits_array(p, np.zeros((2, 5)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_manual_two_layer_parity(self):
        rng = np.random.default_rng(9)
        p = init_mlp((4, 6, 3), seed=9)
        x = rng.normal(size=(8, 4))
        w1, b1 = p.weights[0].data, p.biases[0].data
        w2, b2 = p.weights[1].data, p.biases[1].data
        manual = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(logits_array(p, x), manual, atol=1e-12)

    def test_forward_requires_matrix(self):
        p = init_mlp((4, 6, 3), seed=0)
        with pytest.raises(DimensionError):
            forward_logits(p, np.zeros(4))
        with pytest.raises(DimensionError):
            forward_logits(p, np.zeros((2, 5)))

    def test_forward_returns_tensor(self):
        p = init_mlp((4, 6, 3), seed=0)
        out = forward_logits(p, np.zeros((1, 4)))
        assert isinstance(out, Tensor)
        assert out.data.shape == (1, 3)


class TestPredict:
    def test_labels_are_one_based(self):
        p = ModelParams(
            dims=(2, 3),
            weights=[Tensor(np.eye(2, 3) * 0.0, requires_grad=True)],
            biases=[Tensor(np.array([0.0, 5.0, 1.0]), requires_grad=True)],
        )
        assert predict(p, np.zeros(2)) == 2

    def test_tie_breaks_to_smallest_label(self):
        p = ModelParams(
            dims=(2, 3),
            weights=[Tensor(np.zeros((2, 3)), requires_grad=True)],
            biases=[Tensor(np.array([1.0, 7.0, 7.0]), requires_grad=True)],
        )
        assert predict(p, np.zeros(2)) == 2

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        p = init_mlp((6, 9, 4), seed=11)
        x = rng.normal(size=(20, 6))
        batch = predict_batch(p, x)
        singles = np.array([predict(p, row) for row in x])
        np.testing.assert_array_equal(batch, singles)
        assert batch.min() >= 1 and batch.max() <= 4


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        p = init_mlp((12, 20, 20, 5), seed=21)
        # Perturb so values are not symmetric around the initializer.
        rng = np.random.default_rng(0)
        p.apply_update(rng.normal(size=p.n_params), lr=0.1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, extra={"note": "unit"})
        back, manifest = load_checkpoint(path)
        assert back.dims == p.dims
        for ta, tb in zip(back.tensors(), p.tensors()):
            np.testing.assert_array_equal(ta.data, tb.data)
        assert manifest["note"] == "unit"

    def test_same_params_give_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(init_mlp((4, 8, 3), seed=2), a, extra={"seed": 2})
        save_checkpoint(init_mlp((4, 8, 3), seed=2), b, extra={"seed": 2})
        assert a.read_bytes() == b.read_bytes()

    def test_dims_must_match_the_tensors(self, tmp_path):
        path = tmp_path / "model.ckpt"
        p = init_mlp((4, 8, 3), seed=2)
        arrays = {str(i): t.data for i, t in enumerate(p.tensors())}
        for dims in ([4, 8, 2], [4, 3], [4], [4, 0, 3]):
            meta = {"dims": dims, "extra": None}
            write_container(path, "mlp-checkpoint", meta, arrays)
            with pytest.raises(ContractError, match="layer widths"):
                load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_every_truncation_raises_contract_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_mlp((4, 8, 3), seed=2), path, extra={"seed": 2})
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ContractError):
                load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        p = init_mlp((4, 8, 3), seed=2)
        p.biases[-1].data[0] = bad  # the last value of the payload
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_every_single_bit_flip_loads_finite_or_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_mlp((4, 8, 3), seed=2), path, extra={"seed": 2})
        blob = path.read_bytes()
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                back, _ = load_checkpoint(path)
            except ContractError:
                continue
            for t in back.tensors():
                assert np.isfinite(t.data).all(), f"bit {bit}"


class TestApplyUpdate:
    def test_gradient_step_moves_parameters(self):
        p = init_mlp((3, 4, 2), seed=30)
        flat = np.ones(p.n_params)
        before = np.concatenate([t.data.ravel().copy() for t in p.tensors()])
        p.apply_update(flat, lr=0.5)
        after = np.concatenate([t.data.ravel() for t in p.tensors()])
        np.testing.assert_allclose(after, before - 0.5, atol=1e-15)

    def test_rejects_wrong_length(self):
        p = init_mlp((3, 4, 2), seed=30)
        with pytest.raises(DimensionError):
            p.apply_update(np.ones(3), lr=0.1)

    def test_copy_is_independent(self):
        p = init_mlp((3, 4, 2), seed=31)
        q = p.copy()
        p.apply_update(np.ones(p.n_params), lr=1.0)
        assert not np.array_equal(q.weights[0].data, p.weights[0].data)
