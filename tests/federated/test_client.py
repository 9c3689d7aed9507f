"""Local-training tests."""

import numpy as np
import pytest

from repro.engine import train_local
from repro.models import logistic, mlp


class TestTrainLocal:
    def test_loss_decreases(self, tiny_dataset, rng):
        model = logistic(input_shape=tiny_dataset.input_shape, seed=0)
        x, y = tiny_dataset.x_train[:200], tiny_dataset.y_train[:200]
        result = train_local(model, x, y, epochs=5, lr=0.05, rng=rng)
        assert result.losses[-1] < result.losses[0]
        assert result.n_samples == 200

    def test_weights_returned_match_model(self, tiny_dataset, rng):
        model = logistic(input_shape=tiny_dataset.input_shape, seed=0)
        x, y = tiny_dataset.x_train[:50], tiny_dataset.y_train[:50]
        result = train_local(model, x, y, epochs=1, rng=rng)
        np.testing.assert_allclose(result.weights, model.get_weights())

    def test_empty_data_is_noop(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape, seed=0)
        before = model.get_weights().copy()
        result = train_local(
            model, tiny_dataset.x_train[:0], tiny_dataset.y_train[:0]
        )
        np.testing.assert_allclose(result.weights, before)
        assert result.n_samples == 0
        assert np.isnan(result.final_loss)

    def test_mismatched_lengths_raise(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            train_local(
                model, tiny_dataset.x_train[:10], tiny_dataset.y_train[:9]
            )

    def test_deterministic_given_rng(self, tiny_dataset):
        x, y = tiny_dataset.x_train[:100], tiny_dataset.y_train[:100]
        results = []
        for _ in range(2):
            model = logistic(input_shape=tiny_dataset.input_shape, seed=0)
            r = train_local(
                model, x, y, epochs=2, rng=np.random.default_rng(9)
            )
            results.append(r.weights)
        np.testing.assert_allclose(results[0], results[1])

    def test_epochs_recorded(self, tiny_dataset, rng):
        model = mlp(input_shape=tiny_dataset.input_shape, seed=0)
        r = train_local(
            model,
            tiny_dataset.x_train[:60],
            tiny_dataset.y_train[:60],
            epochs=3,
            rng=rng,
        )
        assert len(r.losses) == 3
