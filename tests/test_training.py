"""Tests for the pairwise trainer, its loss/gradient, and the Adam optimizer."""

import math

import numpy as np
import pytest

from conftest import build_dataset, random_dataset
from fairpair import training
from fairpair.data import make_pairs
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel, pair_prob, stable_sigmoid
from fairpair.training import (
    AdamState,
    TrainConfig,
    adam_update,
    loss_gradient,
    pair_loss,
    pointwise_loss,
    train_pointwise,
    train_weighted,
    weighted_loss,
)


class TestPairLoss:
    def test_even_odds_positive(self):
        assert pair_loss(0.5, 1, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_even_odds_negative_doubled(self):
        assert pair_loss(0.5, 0, 2.0) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_linear_in_weight(self, rng):
        for _ in range(20):
            p = rng.uniform(0.01, 0.99)
            l = int(rng.integers(0, 2))
            assert pair_loss(p, l, 0.5) == pytest.approx(0.5 * pair_loss(p, l, 1.0))

    def test_weight_must_be_positive(self):
        with pytest.raises(ValidationError):
            pair_loss(0.5, 1, 0.0)


class TestLossGradient:
    def test_equal_features_zero_gradient(self, rng):
        m = LinearRankingModel(rng.normal(size=3), 0.0)
        x = rng.normal(size=3)
        np.testing.assert_array_equal(loss_gradient(m, x, x, 1, 1.0), np.zeros(4))

    def test_near_perfect_prediction_vanishes(self):
        m = LinearRankingModel(np.array([50.0]), 0.0)
        g = loss_gradient(m, np.array([1.0]), np.array([0.0]), 1, 1.0)
        assert np.all(np.abs(g) < 1e-12)

    def test_bias_component_always_zero(self, rng):
        for _ in range(20):
            m = LinearRankingModel(rng.normal(size=4), rng.normal())
            g = loss_gradient(m, rng.normal(size=4), rng.normal(size=4), 1, 2.0)
            assert g[-1] == 0.0

    def test_matches_central_differences(self, rng):
        # Independent oracle: numerically differentiate the loss itself.
        h = 1e-6
        for _ in range(100):
            d = int(rng.integers(1, 6))
            w = rng.normal(size=d)
            xi, xj = rng.normal(size=d), rng.normal(size=d)
            l = int(rng.integers(0, 2))
            weight = float(rng.uniform(0.1, 3.0))

            analytic = loss_gradient(LinearRankingModel(w, 0.0), xi, xj, l, weight)[:-1]
            numeric = np.empty(d)
            for c in range(d):
                wp, wm = w.copy(), w.copy()
                wp[c] += h
                wm[c] -= h
                lp = pair_loss(pair_prob(LinearRankingModel(wp, 0.0), xi, xj), l, weight)
                lm = pair_loss(pair_prob(LinearRankingModel(wm, 0.0), xi, xj), l, weight)
                numeric[c] = (lp - lm) / (2 * h)
            denom = max(np.linalg.norm(analytic), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-6


class TestAdamUpdate:
    def test_zero_gradient_is_noop(self):
        cfg = TrainConfig(learning_rate=0.1)
        params = np.array([1.0, -2.0])
        state, new = adam_update(AdamState.zeros(2), params, np.zeros(2), cfg)
        np.testing.assert_array_equal(new, params)
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self, rng):
        cfg = TrainConfig(learning_rate=0.05)
        grad = rng.normal(size=5)
        params = rng.normal(size=5)
        _, new = adam_update(AdamState.zeros(5), params, grad, cfg)
        expected = params - cfg.learning_rate * np.sign(grad)
        np.testing.assert_allclose(new, expected, atol=1e-8)

    def test_scalar_recursion_oracle(self):
        # Minimize p^2 from p=1 with lr=0.1.  The oracle below is an
        # independent transcription of the update recurrence on plain floats.
        cfg = TrainConfig(learning_rate=0.1)
        p_oracle = 1.0
        m = v = 0.0
        for t in range(1, 101):
            g = 2.0 * p_oracle
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            p_oracle -= cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.eps_adam)
        assert abs(p_oracle) < 0.1

        params = np.array([1.0])
        state = AdamState.zeros(1)
        for _ in range(100):
            state, params = adam_update(state, params, 2.0 * params, cfg)
        assert params[0] == pytest.approx(p_oracle, abs=1e-12)
        assert abs(params[0]) < 0.1

    def test_shape_mismatch(self):
        cfg = TrainConfig()
        with pytest.raises(ValidationError):
            adam_update(AdamState.zeros(2), np.zeros(3), np.zeros(3), cfg)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(seed=-1)


class TestTrainWeighted:
    def test_zero_epochs_returns_init(self, rng):
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        init = LinearRankingModel(rng.normal(size=ds.d), 0.7)
        cfg = TrainConfig(epochs=0)
        out = train_weighted(ps, np.full(len(ps), 0.5), cfg, init=init)
        np.testing.assert_array_equal(out.w, init.w)
        assert out.b == init.b

    def test_single_separable_pair_converges(self):
        ds = build_dataset(
            [("q", [1, 0], [0, 0], [[1.0, 0.0], [0.0, 1.0]])], d=2, K=1
        )
        ps = make_pairs(ds)
        cfg = TrainConfig(learning_rate=0.1, epochs=500, batch_size=8, seed=0)
        model = train_weighted(ps, np.full(len(ps), 0.5), cfg)
        assert pair_prob(model, ps.source.queries[0].features[0],
                         ps.source.queries[0].features[1]) > 0.99

    def test_uniform_weight_scale_first_step(self, rng):
        # One full-batch step: any positive constant weight gives the same
        # update because the optimizer normalizes per coordinate.
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        cfg = TrainConfig(epochs=1, batch_size=10_000, seed=3)
        base = train_weighted(ps, np.full(len(ps), 1.0), cfg)
        scaled = train_weighted(ps, np.full(len(ps), 3.7), cfg)
        np.testing.assert_allclose(scaled.w, base.w, rtol=1e-5, atol=1e-9)

    def test_determinism(self, rng):
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        weights = rng.uniform(0.2, 0.8, size=len(ps))
        cfg = TrainConfig(epochs=5, batch_size=16, seed=11)
        a = train_weighted(ps, weights, cfg)
        b = train_weighted(ps, weights, cfg)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_full_batch_loss_decreases_after_warmup(self, rng):
        # Epoch-end loss is non-increasing after epoch 5 in >= 95% of runs.
        monotone = 0
        total = 20
        for trial in range(total):
            ds = random_dataset(rng, n_queries=3, items_per_query=6, d=3, K=2)
            ps = make_pairs(ds)
            weights = np.full(len(ps), 0.5)
            losses = []
            for epochs in range(16):
                cfg = TrainConfig(epochs=epochs, batch_size=10_000, seed=trial)
                losses.append(weighted_loss(train_weighted(ps, weights, cfg), ps, weights))
            tail = losses[5:]
            if all(b <= a + 1e-15 for a, b in zip(tail, tail[1:])):
                monotone += 1
        assert monotone / total >= 0.95

    def test_weighted_loss_linear_in_weights(self, rng):
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        weights = rng.uniform(0.1, 0.9, size=len(ps))
        model = LinearRankingModel(rng.normal(size=ds.d), 0.0)
        assert weighted_loss(model, ps, 2 * weights) == 2 * weighted_loss(
            model, ps, weights
        )

    def test_batch_gradient_matches_per_pair_op(self, rng):
        # One full-batch step of the trainer equals a hand-assembled step
        # built from the scalar gradient op.
        ds = random_dataset(rng, n_queries=2, items_per_query=4)
        ps = make_pairs(ds)
        weights = rng.uniform(0.2, 0.8, size=len(ps))
        cfg = TrainConfig(epochs=1, batch_size=10_000, seed=5)
        trained = train_weighted(ps, weights, cfg)

        init = LinearRankingModel.zeros(ds.d)
        grads = []
        arr = ps.arrays
        for t, (qi, i, j, label) in enumerate(zip(arr.query_index, arr.i, arr.j, arr.label)):
            q = ds.queries[qi]
            grads.append(loss_gradient(init, q.features[i], q.features[j], label, weights[t]))
        # The shuffled batch order does not change a full-batch mean.
        grad = np.mean(grads, axis=0)
        _, params = adam_update(
            AdamState.zeros(ds.d + 1), np.zeros(ds.d + 1), grad, cfg
        )
        np.testing.assert_allclose(trained.w, params[:-1], atol=1e-12)

    @pytest.mark.parametrize("epochs,batch_size", [(3, 16), (2, 10_000), (0, 8), (1, 1)])
    def test_one_adam_step_per_minibatch(self, rng, monkeypatch, epochs, batch_size):
        # The benchmark counts inner steps by wrapping training.adam_update.
        ps = make_pairs(random_dataset(rng))
        calls = []
        real = training.adam_update

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(training, "adam_update", counting)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size)
        train_weighted(ps, np.full(len(ps), 0.5), cfg)
        assert len(calls) == epochs * math.ceil(len(ps) / batch_size)

    def test_empty_pairset_rejected(self):
        ds = build_dataset([("q", [1, 1], [0, 0], [[0.0], [1.0]])], d=1, K=1)
        with pytest.raises(ValidationError):
            train_weighted(make_pairs(ds), np.zeros(0), TrainConfig())

    def test_bad_weights_rejected(self, rng):
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        with pytest.raises(ValidationError):
            train_weighted(ps, np.full(len(ps) - 1, 0.5), TrainConfig())
        with pytest.raises(ValidationError):
            train_weighted(ps, np.full(len(ps), -1.0), TrainConfig())


class TestTrainPointwise:
    def test_learns_separable_items(self, rng):
        labels = np.array([1, 1, 1, 0, 0, 0])
        feats = np.where(labels[:, None] == 1, 1.0, -1.0) + 0.01 * rng.normal(size=(6, 2))
        ds = build_dataset([("q", labels, [0] * 6, feats)], d=2, K=1)
        cfg = TrainConfig(learning_rate=0.1, epochs=300, batch_size=16, seed=0)
        model = train_pointwise(ds, np.full(6, 0.5), cfg)
        p = stable_sigmoid(ds.features @ model.w + model.b)
        assert np.all((p > 0.5) == (labels == 1))

    def test_zero_epochs_returns_init(self, rng):
        ds = random_dataset(rng)
        init = LinearRankingModel(rng.normal(size=ds.d), -0.2)
        out = train_pointwise(ds, np.full(ds.n_items, 0.5), TrainConfig(epochs=0), init=init)
        np.testing.assert_array_equal(out.w, init.w)
        assert out.b == init.b

    def test_bias_receives_gradient(self, rng):
        # All-positive labels push the bias up.
        ds = build_dataset([("q", [1, 1, 1], [0, 0, 0], [[0.0], [0.0], [0.0]])], d=1, K=1)
        cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=8, seed=0)
        model = train_pointwise(ds, np.full(3, 0.5), cfg)
        assert model.b > 0.5

    def test_pointwise_loss_linear_in_weights(self, rng):
        ds = random_dataset(rng)
        weights = rng.uniform(0.1, 0.9, size=ds.n_items)
        model = LinearRankingModel(rng.normal(size=ds.d), 0.1)
        assert pointwise_loss(model, ds, 2 * weights) == 2 * pointwise_loss(
            model, ds, weights
        )
