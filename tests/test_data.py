"""Synthetic long-tailed data: counts, sampling, augmentation, round trips."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from lcgclab.data import (
    AugmentConfig,
    LongTailSpec,
    SynthDataset,
    export_csv,
    load_dataset,
    longtail_counts,
    sample_minibatch,
    save_dataset,
    strong_aug,
    synthesize,
    weak_aug,
)
from lcgclab.errors import (
    ContractError,
    DimensionError,
    InfeasibleSpecError,
    LabelError,
)
from lcgclab.fileio import write_container


class TestLongtailCounts:
    def test_reference_profile(self):
        """n_max=1500, gamma=100 over 10 classes ends at exactly 15."""
        counts = longtail_counts(10, 1500, 100.0)
        np.testing.assert_array_equal(
            counts, [1500, 899, 539, 323, 194, 116, 70, 42, 25, 15]
        )

    def test_default_labeled_profile(self):
        counts = longtail_counts(10, 300, 100.0)
        np.testing.assert_array_equal(
            counts, [300, 180, 108, 65, 39, 23, 14, 8, 5, 3]
        )
        assert counts.sum() == 745

    def test_gamma_one_is_balanced(self):
        np.testing.assert_array_equal(longtail_counts(6, 120, 1.0), [120] * 6)

    def test_rounding_is_half_up(self):
        """Two classes, ratio chosen so the tail lands exactly on .5."""
        counts = longtail_counts(2, 100, 100.0 / 0.5)
        assert counts[1] == 1  # 100 * (1/200) = 0.5 rounds up

    def test_counts_are_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            n = int(rng.integers(500, 2000))
            g = float(rng.uniform(1.0, 100.0))
            counts = longtail_counts(c, n, g)
            assert counts[0] == n
            assert (np.diff(counts) <= 0).all()
            assert (counts >= 1).all()

    def test_infeasible_tail_raises(self):
        with pytest.raises(InfeasibleSpecError):
            longtail_counts(10, 10, 100.0)

    def test_bad_arguments_raise(self):
        with pytest.raises(ContractError):
            longtail_counts(0, 100, 10.0)
        with pytest.raises(ContractError):
            longtail_counts(1, 100, 10.0)
        with pytest.raises(ContractError):
            longtail_counts(5, 0, 10.0)
        with pytest.raises(ContractError):
            longtail_counts(5, 100, 0.5)


class TestSpecValidation:
    def test_defaults_are_feasible(self):
        spec = LongTailSpec()
        assert spec.classes == 10 and spec.dim == 32

    def test_more_classes_than_dims_keeps_radius(self):
        """With C > d exact equidistance is impossible; means still sit
        on the sphere of radius separation / sqrt(2)."""
        ds = synthesize(
            LongTailSpec(classes=8, dim=4, gamma_labeled=2.0,
                         gamma_unlabeled=2.0)
        )
        radii = np.linalg.norm(ds.class_means, axis=1)
        np.testing.assert_allclose(radii, 3.5 / np.sqrt(2.0), rtol=1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ContractError):
            LongTailSpec(class_separation=-1.0)
        with pytest.raises(ContractError):
            LongTailSpec(noise_sigma=-1.0)
        with pytest.raises(ContractError):
            LongTailSpec(test_per_class=0)
        with pytest.raises(ContractError):
            LongTailSpec(noise_sigma=float("inf"))
        with pytest.raises(ContractError):
            LongTailSpec(gamma_labeled=float("nan"))

    @pytest.mark.parametrize(
        "field, value, error",
        [("classes", 1, ContractError), ("dim", 0, DimensionError),
         ("n_max_labeled", 0, ContractError),
         ("n_max_unlabeled", 0, ContractError)],
    )
    def test_rejects_degenerate_sizes(self, field, value, error):
        with pytest.raises(error):
            LongTailSpec(**{field: value})

    def test_infeasible_spec_caught_at_construction(self):
        with pytest.raises(InfeasibleSpecError):
            LongTailSpec(n_max_labeled=10, gamma_labeled=1000.0)


@pytest.fixture(scope="module")
def ds():
    return synthesize(LongTailSpec())


class TestSynthesize:

    def test_shapes_and_counts(self, ds):
        assert ds.labeled_x.shape == (745, 32)
        assert ds.labeled_y.shape == (745,)
        assert ds.unlabeled_x.shape[0] == ds.hidden_labels.shape[0]
        assert ds.test_x.shape == (1000, 32)
        np.testing.assert_array_equal(
            np.bincount(ds.labeled_y - 1, minlength=10), ds.labeled_counts
        )
        np.testing.assert_array_equal(
            np.bincount(ds.hidden_labels - 1, minlength=10),
            longtail_counts(10, 600, 100.0),
        )
        np.testing.assert_array_equal(
            np.bincount(ds.test_y - 1, minlength=10), [100] * 10
        )

    def test_mean_geometry_is_equidistant(self, ds):
        means = ds.class_means
        for i in range(10):
            for j in range(i + 1, 10):
                np.testing.assert_allclose(
                    np.linalg.norm(means[i] - means[j]),
                    LongTailSpec().class_separation,
                    rtol=1e-10,
                )

    def test_samples_cluster_around_their_means(self, ds):
        """Head-class sample mean is within 5 sigma/sqrt(n) per coordinate."""
        head = ds.labeled_x[ds.labeled_y == 1]
        err = np.abs(head.mean(axis=0) - ds.class_means[0])
        bound = 5.0 * LongTailSpec().noise_sigma / np.sqrt(head.shape[0])
        assert (err < bound).all()

    def test_reversed_unlabeled_flips_profile(self):
        spec = LongTailSpec(reversed_unlabeled=True)
        ds = synthesize(spec)
        np.testing.assert_array_equal(
            np.bincount(ds.hidden_labels - 1, minlength=10),
            longtail_counts(10, 600, 100.0)[::-1],
        )

    def test_deterministic_per_seed(self):
        a = synthesize(LongTailSpec(seed=3))
        b = synthesize(LongTailSpec(seed=3))
        c = synthesize(LongTailSpec(seed=4))
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)
        assert not np.array_equal(a.labeled_x, c.labeled_x)

    def test_value_range_covers_both_pools(self, ds):
        vr = ds.value_range()
        assert vr >= np.abs(ds.labeled_x).max()
        assert vr >= np.abs(ds.unlabeled_x).max()

    def test_labeled_distribution_sums_to_one(self, ds):
        dist = ds.labeled_distribution()
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-15)
        assert dist[0] == pytest.approx(300 / 745)


class TestAugmentation:
    def test_weak_perturbation_scale(self):
        rng = np.random.default_rng(5)
        x = np.zeros((4000, 8))
        out = weak_aug(x, AugmentConfig(), rng)
        delta = out - x
        assert abs(delta.std() - 0.1) < 0.005
        assert abs(delta.mean()) < 0.005

    def test_strong_masks_exact_count(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(6)
        x = np.full((50, 32), 7.0)
        out = strong_aug(x, cfg, rng)
        k = int(cfg.mask_fraction * 32 + 0.5)
        zeros_per_row = (out == 0.0).sum(axis=1)
        np.testing.assert_array_equal(zeros_per_row, np.full(50, k))

    def test_strong_noise_on_surviving_coords(self):
        rng = np.random.default_rng(7)
        x = np.zeros((4000, 8))
        out = strong_aug(x, AugmentConfig(), rng)
        survivors = out[out != 0.0]
        assert abs(survivors.std() - 0.5) < 0.02

    def test_augment_does_not_mutate_input(self):
        rng = np.random.default_rng(8)
        x = np.ones((5, 8))
        weak_aug(x, AugmentConfig(), rng)
        strong_aug(x, AugmentConfig(), rng)
        np.testing.assert_array_equal(x, np.ones((5, 8)))

    def test_augment_config_validation(self):
        with pytest.raises(ContractError):
            AugmentConfig(sigma_weak=-0.1)
        with pytest.raises(ContractError):
            AugmentConfig(mask_fraction=1.5)
        with pytest.raises(ContractError):
            AugmentConfig(sigma_weak=float("nan"))


class TestMinibatch:
    def test_shapes(self):
        ds = synthesize(LongTailSpec())
        rng = np.random.default_rng(1)
        xl, yl, xu = sample_minibatch(ds, 16, 3, rng)
        assert xl.shape == (16, 32)
        assert yl.shape == (16,)
        assert xu.shape == (48, 32)

    def test_class_frequency_tracks_pool_imbalance(self):
        ds = synthesize(LongTailSpec())
        rng = np.random.default_rng(2)
        hits = 0
        total = 40 * 500
        for _ in range(500):
            _, yl, _ = sample_minibatch(ds, 40, 1, rng)
            hits += int((yl == 1).sum())
        freq = hits / total
        assert abs(freq - 300 / 745) < 0.02

    def test_rejects_bad_sizes(self):
        ds = synthesize(LongTailSpec())
        rng = np.random.default_rng(3)
        with pytest.raises(ContractError, match="^batch_size must be an integer >= 1"):
            sample_minibatch(ds, 0, 2, rng)
        with pytest.raises(ContractError, match="^mu must be an integer >= 1"):
            sample_minibatch(ds, 4, 0, rng)

    @pytest.mark.parametrize("pool", ["labeled", "unlabeled"])
    def test_rejects_an_empty_pool(self, pool):
        """No dataset has an empty pool to sample from: the record
        refuses one where it is made."""
        ds = synthesize(TINY_SPEC)
        x_name = f"{pool}_x"
        y_name = "labeled_y" if pool == "labeled" else "hidden_labels"
        empty = {x_name: getattr(ds, x_name)[:0], y_name: getattr(ds, y_name)[:0]}
        with pytest.raises(ContractError, match=f"^{x_name} .* n >= 1 rows"):
            dataclasses.replace(ds, **empty)


TINY_SPEC = LongTailSpec(
    classes=3,
    dim=2,
    n_max_labeled=4,
    n_max_unlabeled=4,
    gamma_labeled=2.0,
    gamma_unlabeled=2.0,
    test_per_class=2,
    seed=5,
)


def _with_label(y, label):
    y = y.copy()
    y[0] = label
    return y


# Arrays a SynthDataset refuses where it is made, as replace() keywords,
# and the error each raises (an empty pool: TestMinibatch). Each of
# these once built a record that failed later in numpy (float labels,
# label 0, string class means), only when a batch drew its last row
# (one label short), or not at all.
_BAD_ARRAYS = {
    "float labels": (LabelError, lambda ds: dict(labeled_y=ds.labeled_y * 1.0)),
    "label 0": (LabelError, lambda ds: dict(test_y=_with_label(ds.test_y, 0))),
    "one label short": (ContractError, lambda ds: dict(labeled_y=ds.labeled_y[:-1])),
    "a pool of the wrong width": (ContractError, lambda ds: dict(test_x=ds.test_x[:, :1])),
    "string class means": (ContractError, lambda ds: dict(
        class_means=ds.class_means.astype(str)
    )),
}


class TestTheRecordChecksItself:
    @pytest.mark.parametrize("case", list(_BAD_ARRAYS))
    def test_bad_arrays_raise_where_the_record_is_made(self, case):
        ds = synthesize(TINY_SPEC)
        error, bad = _BAD_ARRAYS[case]
        with pytest.raises(error):
            dataclasses.replace(ds, **bad(ds))

    def test_a_valid_record_keeps_its_arrays(self):
        ds = synthesize(TINY_SPEC)
        again = dataclasses.replace(ds)
        for f in dataclasses.fields(ds):
            assert getattr(again, f.name) is getattr(ds, f.name), f.name

    def test_the_record_is_frozen(self):
        ds = synthesize(TINY_SPEC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.labeled_y = ds.labeled_y[:-1]


def _payload_offset(blob) -> int:
    """First payload byte of a container: magic, version, manifest length
    (u32 at bytes 6-10), then the manifest itself."""
    return 10 + int.from_bytes(blob[6:10], "little")


class TestRoundTrips:
    def test_binary_roundtrip_is_bitwise(self, tmp_path):
        ds = synthesize(LongTailSpec(seed=11))
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.class_means, ds.class_means)
        np.testing.assert_array_equal(back.labeled_x, ds.labeled_x)
        np.testing.assert_array_equal(back.labeled_y, ds.labeled_y)
        np.testing.assert_array_equal(back.unlabeled_x, ds.unlabeled_x)
        np.testing.assert_array_equal(back.hidden_labels, ds.hidden_labels)
        np.testing.assert_array_equal(back.test_x, ds.test_x)
        np.testing.assert_array_equal(back.test_y, ds.test_y)
        np.testing.assert_array_equal(back.labeled_counts, ds.labeled_counts)

    def test_reversed_unlabeled_roundtrip_keeps_every_field(self, tmp_path):
        ds = synthesize(LongTailSpec(reversed_unlabeled=True, seed=11))
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        for f in dataclasses.fields(SynthDataset):
            a, b = getattr(back, f.name), getattr(ds, f.name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name

    def test_counts_follow_the_stored_labels(self, tmp_path):
        ds = synthesize(TINY_SPEC)
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        assert list(ds.labeled_counts) == [4, 3, 2]
        C, d = ds.classes, ds.dim
        n_l = ds.labeled_x.shape[0]
        blob = bytearray(path.read_bytes())
        label_off = _payload_offset(blob) + 8 * C * d + 8 * n_l * d
        blob[label_off : label_off + 8] = np.float64(3.0).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        back = load_dataset(path)
        assert back.labeled_y[0] == 3
        assert list(back.labeled_counts) == [3, 3, 3]

    def test_load_rejects_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ContractError):
            load_dataset(path)

    def test_load_rejects_truncated_payload(self, tmp_path):
        ds = synthesize(LongTailSpec(seed=12))
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ContractError):
            load_dataset(path)

    def test_every_truncation_raises_contract_error(self, tmp_path):
        ds = synthesize(TINY_SPEC)
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ContractError):
                load_dataset(path)

    @pytest.mark.parametrize("pool", ["labeled_x", "unlabeled_x", "test_x"])
    def test_pool_width_must_match_the_class_means(self, tmp_path, pool):
        ds = synthesize(TINY_SPEC)
        arrays = {f.name: getattr(ds, f.name) for f in dataclasses.fields(ds)}
        arrays[pool] = np.hstack([arrays[pool], arrays[pool][:, :1]])
        path = tmp_path / "pool.bin"
        write_container(path, "dataset", {}, arrays)
        with pytest.raises(ContractError, match=f"{pool} .* do not fit 3 classes"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [99.0, -4.0, 2.5])
    def test_out_of_range_or_fractional_label_rejected(self, tmp_path, bad):
        ds = synthesize(TINY_SPEC)
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        C, d = ds.classes, ds.dim
        n_l = ds.labeled_x.shape[0]
        blob = bytearray(path.read_bytes())
        # Class means and labeled_x precede labeled_y in the payload.
        label_off = _payload_offset(blob) + 8 * C * d + 8 * n_l * d
        blob[label_off : label_off + 8] = np.float64(bad).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelError):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        ds = synthesize(TINY_SPEC)
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        C, d = ds.classes, ds.dim
        blob = bytearray(path.read_bytes())
        x_off = _payload_offset(blob) + 8 * C * d  # labeled_x[0, 0]
        blob[x_off : x_off + 8] = np.float64(bad).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError):
            load_dataset(path)

    def test_every_single_bit_flip_loads_finite_or_is_rejected(self, tmp_path):
        ds = synthesize(TINY_SPEC)
        path = tmp_path / "pool.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                back = load_dataset(path)
            except (ContractError, LabelError):
                continue
            for a in (back.class_means, back.labeled_x, back.unlabeled_x,
                      back.test_x):
                assert np.isfinite(a).all(), f"bit {bit}"

    def test_csv_shape_and_privacy(self, tmp_path):
        ds = synthesize(LongTailSpec(seed=13))
        path = tmp_path / "pool.csv"
        export_csv(ds, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["split", "label"]
        assert header[2] == "x1" and header[-1] == "x32"
        n_rows = (
            ds.labeled_x.shape[0] + ds.unlabeled_x.shape[0] + ds.test_x.shape[0]
        )
        assert len(lines) == 1 + n_rows
        unlabeled = [l for l in lines[1:] if l.startswith("unlabeled,")]
        assert all(l.split(",")[1] == "-1" for l in unlabeled)
        first = lines[1].split(",")
        assert first[0] == "labeled"
        np.testing.assert_allclose(float(first[2]), ds.labeled_x[0, 0])
