"""MLP parameters: initialization, forward pass, checkpoints."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from lcgclab.errors import ContractError, DimensionError
from lcgclab.fileio import write_container
from lcgclab.model import (
    ModelParams,
    StepBuffers,
    backward_rows,
    forward_cached,
    forward_logits,
    grad_buffer,
    init_mlp,
    load_checkpoint,
    logits_array,
    save_checkpoint,
)
from lcgclab.tensor import Tensor


class TestInit:
    def test_shapes_and_param_count(self):
        p = init_mlp((32, 64, 10), seed=0)
        assert p.dims == (32, 64, 10)
        assert [w.shape for w in p.weights] == [(32, 64), (64, 10)]
        assert [b.shape for b in p.biases] == [(64,), (10,)]
        assert p.n_params == 32 * 64 + 64 + 64 * 10 + 10

    def test_biases_start_at_zero(self):
        p = init_mlp((8, 16, 3), seed=1)
        for b in p.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_weight_scale_tracks_fan_in(self):
        """He initialization: std approximately sqrt(2 / fan_in)."""
        p = init_mlp((200, 300, 5), seed=2)
        w1 = p.weights[0]
        assert abs(w1.std() - np.sqrt(2.0 / 200)) < 0.003
        assert abs(w1.mean()) < 0.003

    def test_deterministic_per_seed(self):
        a = init_mlp((6, 8, 4), seed=5)
        b = init_mlp((6, 8, 4), seed=5)
        c = init_mlp((6, 8, 4), seed=6)
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)
        assert not np.array_equal(a.weights[0], c.weights[0])

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
        w1, b1 = p.weights[0], p.biases[0]
        w2, b2 = p.weights[1], p.biases[1]
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


class TestStepBuffers:
    def test_buffers_give_the_same_bits(self):
        """A forward into buffers larger than the batch equals the
        allocating forward bitwise; the logits and the hidden inputs are
        row-prefix views of the activations. Two backwards of it on
        disjoint row blocks give the gradient bits of an allocating
        forward's, each into the buffers' flat array, and each consumes
        exactly its rows: they end up holding the hidden adjoints
        (g W^T) [h > 0], and a row between the blocks is untouched."""
        rng = np.random.default_rng(12)
        p = init_mlp((5, 7, 6, 3), seed=12)
        x = rng.normal(size=(9, 5))
        bufs = StepBuffers(p, 6, 4)
        assert [a.shape for a in bufs.acts] == [(11, 7), (11, 6), (11, 3)]
        assert (bufs.stacked.shape, bufs.strong.shape) == ((11, 5), (6, 5))
        z_ref, inputs_ref = forward_cached(p, x)
        z, inputs = forward_cached(p, x, out=bufs.acts)
        assert z.tobytes() == z_ref.tobytes()
        assert np.shares_memory(z, bufs.acts[-1])
        for h, h_ref, act in zip(inputs[1:], inputs_ref[1:], bufs.acts):
            assert h.tobytes() == h_ref.tobytes()
            assert np.shares_memory(h, act)
        before = [h.copy() for h in inputs]
        for start in (0, 5):
            g = rng.normal(size=(4, 3))
            ref = backward_rows(
                p, forward_cached(p, x)[1], g, start, out=grad_buffer(p)
            )
            flat = backward_rows(p, inputs, g, start, out=bufs.grads[0])
            assert flat is bufs.grads[0][0]
            assert flat.tobytes() == ref.tobytes()
            rows = slice(start, start + 4)
            for i in range(len(p.weights) - 1, 0, -1):
                g = (g @ p.weights[i].T) * (before[i][rows] > 0.0)
                assert inputs[i][rows].tobytes() == g.tobytes()
        for h, h0 in zip(inputs[1:], before[1:]):
            assert h[4].tobytes() == h0[4].tobytes()
        assert inputs[0].tobytes() == x.tobytes()

    def test_buffers_hold_no_adjoints(self):
        """The buffers own the activations, three flat gradients and the
        step's two inputs, and no other array."""
        p = init_mlp((5, 7, 6, 3), seed=12)
        unlabeled, labeled = 6, 4
        bufs = StepBuffers(p, unlabeled, labeled)
        rows, d = unlabeled + 1 + labeled, p.dims[0]
        assert sorted(vars(bufs)) == ["acts", "grads", "stacked", "strong"]
        arrays = [*bufs.acts, *(f for f, _ in bufs.grads), bufs.stacked, bufs.strong]
        want = rows * sum(p.dims[1:]) + 3 * p.n_params + rows * d + unlabeled * d
        assert sum(a.nbytes for a in arrays) == 8 * want

    def test_probe_row(self):
        p = init_mlp((5, 7, 3), seed=13)
        probe = np.arange(5.0)
        bufs = StepBuffers(p, 4, 2, probe)
        assert bufs.stacked[4].tobytes() == probe.tobytes()
        assert not StepBuffers(p, 4, 2).stacked[4].any()
        for wrong in (np.zeros(4), np.zeros((1, 5)), 0.0):
            with pytest.raises(DimensionError):
                StepBuffers(p, 4, 2, wrong)


# Widths that neither init_mlp nor load_checkpoint takes, with the
# layer shapes int() would read from them.
_BAD_WIDTHS = {
    "float": ((4, 6.5, 3), (4, 6, 3)),
    "integral-float": ((4, 6.0, 3), (4, 6, 3)),
    "bool": ((4, True, 3), (4, 1, 3)),
    "string": ((4, "3", 3), (4, 3, 3)),
    "zero": ((4, 0, 3), (4, 0, 3)),
    "negative": ((4, -2, 3), (4, 0, 3)),
    "one-layer": ((4,), (4,)),
}


@pytest.mark.parametrize("case", list(_BAD_WIDTHS))
def test_init_and_load_refuse_the_same_widths(case, tmp_path):
    """One width rule: a width is an integer >= 1 (no bool, no float, no
    string), and a net has two or more. init_mlp once built (4, 6.5, 3)
    with width 6 and (4, True, 3) with width 1."""
    widths, shapes = _BAD_WIDTHS[case]
    with pytest.raises((ContractError, DimensionError)):
        init_mlp(widths, seed=0)
    arrays = {}
    for i, (fan_in, fan_out) in enumerate(zip(shapes, shapes[1:]), start=1):
        arrays[f"W{i}"], arrays[f"b{i}"] = np.ones((fan_in, fan_out)), np.zeros(fan_out)
    path = tmp_path / "model.ckpt"
    meta = {"dims": list(widths), "extra": None}
    write_container(path, "mlp-checkpoint", meta, arrays)
    with pytest.raises(ContractError, match="layer widths"):
        load_checkpoint(path)


class TestTheRecordChecksItself:
    """ModelParams checks its widths against its tensors where it is made.
    A record with hidden width 7 in ``dims`` and 5-wide weights once went
    through ``evaluate`` without an error."""

    def test_dims_that_do_not_fit_the_weights_raise(self):
        p = init_mlp((4, 5, 3), seed=0)
        with pytest.raises(DimensionError, match="layer widths"):
            ModelParams((4, 7, 3), p.weights, p.biases)

    @pytest.mark.parametrize("drop", ["weights", "biases"])
    def test_a_missing_tensor_raises(self, drop):
        p = init_mlp((4, 5, 3), seed=0)
        tensors = {"weights": p.weights, "biases": p.biases}
        tensors[drop] = tensors[drop][:-1]
        with pytest.raises(DimensionError, match="layer widths"):
            ModelParams(p.dims, **tensors)

    def test_the_record_is_frozen(self):
        p = init_mlp((4, 5, 3), seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.dims = (4, 7, 3)


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
            np.testing.assert_array_equal(ta, tb)
        assert manifest["note"] == "unit"

    def test_same_params_give_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(init_mlp((4, 8, 3), seed=2), a, extra={"seed": 2})
        save_checkpoint(init_mlp((4, 8, 3), seed=2), b, extra={"seed": 2})
        assert a.read_bytes() == b.read_bytes()

    def test_dims_must_match_the_tensors(self, tmp_path):
        path = tmp_path / "model.ckpt"
        p = init_mlp((4, 8, 3), seed=2)
        arrays = {str(i): t for i, t in enumerate(p.tensors())}
        # int() would load the last four as (4, 8, 3).
        bad = ([4, 8, 2], [4, 3], [4], [4, 0, 3],
               [4.9, 8, 3], ["4", "8", "3"], [4, 8, 3.5], [4.0, 8, 3])
        for dims in bad:
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
        p.biases[-1][0] = bad  # the last value of the payload
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
                assert np.isfinite(t).all(), f"bit {bit}"


class TestApplyUpdate:
    def test_gradient_step_moves_parameters(self):
        p = init_mlp((3, 4, 2), seed=30)
        flat = np.ones(p.n_params)
        before = np.concatenate([t.ravel() for t in p.tensors()])
        p.apply_update(flat, lr=0.5)
        after = np.concatenate([t.ravel() for t in p.tensors()])
        np.testing.assert_allclose(after, before - 0.5, atol=1e-15)

    def test_rejects_wrong_length(self):
        p = init_mlp((3, 4, 2), seed=30)
        with pytest.raises(DimensionError):
            p.apply_update(np.ones(3), lr=0.1)


def test_parameters_are_plain_arrays(tmp_path):
    """No autodiff leaf on the product path: a fresh model, a loaded
    checkpoint and a trained model hold plain arrays."""
    from lcgclab.data import LongTailSpec, synthesize
    from lcgclab.debias import TrainSettings, run_training

    spec = LongTailSpec(classes=3, dim=4, n_max_labeled=20, n_max_unlabeled=30,
                        gamma_labeled=2.0, gamma_unlabeled=2.0, test_per_class=5)
    trained, _ = run_training(
        synthesize(spec), (8,), TrainSettings(steps=3, batch_size=4), seed=1
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained, path)
    for p in (init_mlp((4, 8, 3), seed=1), load_checkpoint(path)[0], trained):
        assert all(type(t) is np.ndarray for t in p.tensors())
