"""Synthetic dataset tests: determinism, structure, learnability."""

import numpy as np
import pytest

from repro.data.synthetic import (
    DATASET_PRESETS,
    SyntheticConfig,
    load_preset,
    make_dataset,
)


class TestGeneration:
    def test_shapes(self, tiny_dataset):
        assert tiny_dataset.x_train.shape == (600, 1, 8, 8)
        assert tiny_dataset.y_train.shape == (600,)
        assert tiny_dataset.x_test.shape == (200, 1, 8, 8)
        assert tiny_dataset.input_shape == (1, 8, 8)

    def test_deterministic(self):
        cfg = SyntheticConfig(seed=9, train_size=100, test_size=50)
        a = make_dataset(cfg)
        b = make_dataset(cfg)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_seed_changes_data(self):
        a = make_dataset(SyntheticConfig(seed=1, train_size=100, test_size=50))
        b = make_dataset(SyntheticConfig(seed=2, train_size=100, test_size=50))
        assert not np.allclose(a.x_train, b.x_train)

    def test_all_classes_present(self, tiny_dataset):
        assert set(np.unique(tiny_dataset.y_train)) == set(range(10))

    def test_class_indices_partition_trainset(self, tiny_dataset):
        idx = tiny_dataset.class_indices()
        total = np.concatenate(list(idx.values()))
        assert sorted(total) == list(range(tiny_dataset.train_size))
        for c, arr in idx.items():
            assert (tiny_dataset.y_train[arr] == c).all()

    def test_overrides(self):
        ds = make_dataset(
            SyntheticConfig(seed=0, train_size=100, test_size=50),
            train_size=80,
        )
        assert ds.train_size == 80

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            make_dataset(SyntheticConfig(train_size=0))

    @pytest.mark.parametrize("max_shift", [-1, 13])
    def test_a_shift_outside_the_image_raises(self, max_shift):
        """On 12x12 images a shift of 0 to 12 builds; past either end
        is a config error naming the field."""
        with pytest.raises(ValueError, match="max_shift"):
            make_dataset(max_shift=max_shift, train_size=400, test_size=50)

    def test_a_shift_of_the_whole_side_builds(self):
        """A shift of the image side moves a sample wholly out of view:
        what is left of it is blank."""
        ds = make_dataset(max_shift=12, train_size=400, test_size=50)
        assert ds.input_shape == (1, 12, 12)
        assert (ds.x_train == 0.0).all(axis=(1, 2, 3)).any()


class TestLearnability:
    def test_classes_are_separable(self, tiny_dataset):
        """A nearest-class-mean classifier must beat chance by a wide
        margin — the datasets must carry class signal."""
        means = np.stack(
            [
                tiny_dataset.x_train[tiny_dataset.y_train == c].mean(0)
                for c in range(10)
            ]
        )
        flat_means = means.reshape(10, -1)
        flat_test = tiny_dataset.x_test.reshape(len(tiny_dataset.x_test), -1)
        d = ((flat_test[:, None, :] - flat_means[None]) ** 2).sum(-1)
        acc = (d.argmin(1) == tiny_dataset.y_test).mean()
        assert acc > 0.4

    def test_noise_controls_difficulty(self):
        def ncm_acc(noise):
            ds = make_dataset(
                SyntheticConfig(
                    seed=5, train_size=500, test_size=300, noise=noise
                )
            )
            means = np.stack(
                [ds.x_train[ds.y_train == c].mean(0) for c in range(10)]
            ).reshape(10, -1)
            flat = ds.x_test.reshape(len(ds.x_test), -1)
            d = ((flat[:, None] - means[None]) ** 2).sum(-1)
            return (d.argmin(1) == ds.y_test).mean()

        assert ncm_acc(0.5) > ncm_acc(4.0)


class TestPresets:
    def test_expected_presets_exist(self):
        for name in ("mnist", "cifar10", "mnist_mini", "cifar10_mini"):
            assert name in DATASET_PRESETS

    def test_mini_presets_load(self):
        ds = load_preset("mnist_mini")
        assert ds.name == "mnist_mini"
        assert ds.input_shape == (1, 12, 12)
        ds = load_preset("cifar10_mini")
        assert ds.input_shape == (3, 12, 12)

    def test_full_preset_shapes_match_real_datasets(self):
        m = DATASET_PRESETS["mnist"]
        assert m.shape == (1, 28, 28) and m.train_size == 60_000
        c = DATASET_PRESETS["cifar10"]
        assert c.shape == (3, 32, 32) and c.train_size == 50_000

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            load_preset("imagenet")

    def test_subset_returns_matching_labels(self, tiny_dataset):
        idx = np.array([0, 5, 10])
        x, y = tiny_dataset.subset(idx)
        np.testing.assert_array_equal(y, tiny_dataset.y_train[idx])
        assert x.shape[0] == 3
