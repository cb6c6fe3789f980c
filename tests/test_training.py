"""Tests for the trainers, the pairwise loss and its batch gradient, and Adam."""

import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, numeric_gradient, pair_feature_diff, random_dataset
from fairpair import training
from fairpair.data import make_pairs
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel, stable_sigmoid
from fairpair.training import (
    AdamState,
    TrainConfig,
    adam_update,
    batch_gradient,
    train_pointwise,
    train_weighted,
)
from loss_oracle import weighted_loss
from ordered_pairs import fold, ordered_pairs, ordered_weighted_loss


def one_pair(x_pos, x_neg):
    """The pair set of one query with items pos and neg: the one pair (pos, neg)."""
    ds = build_dataset([("q", [1, 0], [0, 0], [x_pos, x_neg])], d=len(x_pos), K=1)
    ps = make_pairs(ds)
    assert len(ps) == 1
    return ps


class TestPairLoss:
    def test_even_odds_positive(self):
        ps = one_pair([0.0], [0.0])
        loss = weighted_loss(LinearRankingModel.zeros(1), ps, np.array([1.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_even_odds_negative_doubled(self):
        # The ordered pairs are (pos, neg) at label 1 and its mirror at
        # label 0.  Weight 4 on the mirror alone is a mean loss of 2 log 2
        # over the two, and the pair weighs the mean of the two weights.
        ps = one_pair([0.0], [0.0])
        ordered = ordered_pairs(ps)
        weights = np.where(ordered.label == 0, 4.0, 0.0)
        model = LinearRankingModel.zeros(1)
        for loss in (
            ordered_weighted_loss(model, ordered, weights),
            weighted_loss(model, ps, fold(weights, ordered)),
        ):
            assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_linear_in_weight(self, rng):
        # Additive over pairs and linear in each pair's weight.
        for _ in range(20):
            x = rng.normal(size=(3, 2))
            ds = build_dataset([("q", [1, 0, 0], [0, 0, 0], x)], d=2, K=1)
            ps = make_pairs(ds)
            assert len(ps) == 2
            model = LinearRankingModel(rng.normal(size=2), 0.0)
            a, b = rng.uniform(0.1, 2.0, size=2)
            both = weighted_loss(model, ps, np.array([a, b]))
            split = weighted_loss(model, ps, np.array([a, 0.0])) + weighted_loss(
                model, ps, np.array([0.0, b])
            )
            assert both == pytest.approx(split)
            assert weighted_loss(model, ps, np.array([0.5 * a, 0.0])) == pytest.approx(
                0.5 * weighted_loss(model, ps, np.array([a, 0.0]))
            )

    def test_model_dimension_checked(self, rng):
        ps = make_pairs(random_dataset(rng, d=3))
        with pytest.raises(ValidationError, match="model dimension 2 .* dimension 3"):
            weighted_loss(LinearRankingModel.zeros(2), ps, np.ones(len(ps)))

    def test_weight_must_be_positive(self, rng):
        ps = make_pairs(random_dataset(rng))
        weights = np.full(len(ps), 0.5)
        weights[3] = 0.0
        with pytest.raises(ValidationError, match="positive"):
            train_weighted(ps, weights, TrainConfig())


class TestLossGradient:
    def test_equal_features_zero_gradient(self, rng):
        x = rng.normal(size=3)
        ps = one_pair(x, x)
        grad = batch_gradient(rng.normal(size=3), pair_feature_diff(ps), np.ones(1))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_near_perfect_prediction_vanishes(self):
        ps = one_pair([1.0], [0.0])
        grad = batch_gradient(np.array([50.0]), pair_feature_diff(ps), np.ones(1))
        assert np.all(np.abs(grad) < 1e-12)

    def test_bias_component_always_zero(self, rng):
        # The bias cancels in every score difference: the loss does not
        # depend on it, and the gradient has no bias entry.
        for _ in range(20):
            ps = make_pairs(random_dataset(rng, n_queries=2, items_per_query=5, d=4))
            weights = rng.uniform(0.1, 3.0, size=len(ps))
            w = rng.normal(size=4)
            losses = {
                weighted_loss(LinearRankingModel(w, b), ps, weights) for b in (-1e6, 0.0, 42.0)
            }
            assert len(losses) == 1
            x = pair_feature_diff(ps)
            assert batch_gradient(w, x, weights).shape == (4,)

    def test_matches_central_differences(self, rng):
        # Independent oracle: numerically differentiate the loss of a
        # single pair, a one-row batch.
        for _ in range(100):
            d = int(rng.integers(1, 6))
            ps = one_pair(rng.normal(size=d), rng.normal(size=d))
            weight = rng.uniform(0.1, 3.0, size=1)
            w = rng.normal(size=d)
            analytic = batch_gradient(w, pair_feature_diff(ps), weight)
            numeric = numeric_gradient(ps, weight, w)
            denom = max(np.linalg.norm(analytic), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-6


RESIDUAL_EDGES = [0.0, 1e-300, 5e-324, 10.0, 20.0, 36.7, 700.0, 709.8, 745.2, 1e3]
RESIDUAL_Z = [*RESIDUAL_EDGES, *(-z for z in RESIDUAL_EDGES), *np.linspace(-745, 700, 579)]


def residual_oracle(z, weight):
    """-weight / (1 + e^z) to 50 digits."""
    ctx = decimal.Context(prec=50)
    return -ctx.divide(decimal.Decimal(weight), ctx.add(1, ctx.exp(decimal.Decimal(z))))


@pytest.mark.parametrize("weight", [1.0, 0.3, 2.75])
def test_residual_within_4_ulp_where_normal_and_tiny_above(weight):
    # On one pair with x = [1.0] and w = [z], batch_gradient is the residual.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in RESIDUAL_Z:
            r = batch_gradient(np.array([z]), np.array([[1.0]]), np.array([weight]))[0]
            assert math.isfinite(r)
            exact = residual_oracle(z, weight)
            if z <= 700:
                # The true value is a normal double here.
                ulps = abs(decimal.Decimal(r) - exact) / decimal.Decimal(math.ulp(float(exact)))
                assert ulps <= 4, (z, r, exact)
            else:
                assert -weight * 1e-304 <= r <= 0.0, (z, r)


@pytest.mark.parametrize("weight", [1.0, 0.3, 2.75])
def test_pointwise_residual_within_4_ulp_where_normal_and_tiny_above(monkeypatch, weight):
    # One item with x = [1.0], one step from w = [z], b = 0: the step's
    # gradient is [residual, residual].  At label 0 the residual is
    # weight * sigmoid(z), the label-1 oracle at -z, negated.
    grads = []
    real = training.adam_update

    def recording(state, params, grad, cfg):
        grads.append(grad.copy())
        return real(state, params, grad, cfg)

    monkeypatch.setattr(training, "adam_update", recording)
    cfg = TrainConfig(epochs=1, batch_size=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in (1, 0):
            ds = build_dataset([("q", [label], [0], [[1.0]])], d=1, K=1)
            f = 2 * label - 1
            for z in RESIDUAL_Z:
                train_pointwise(ds, [weight], cfg, init=LinearRankingModel(np.array([z]), 0.0))
                r, r_bias = grads.pop()
                assert r == r_bias and math.isfinite(r)
                exact = f * residual_oracle(f * z, weight)
                if f * z <= 700:
                    ulps = abs(decimal.Decimal(r) - exact) / decimal.Decimal(math.ulp(float(exact)))
                    assert ulps <= 4, (label, z, r, exact)
                else:
                    assert 0.0 <= -f * r <= weight * 1e-304, (label, z, r)


def matmul_batch_gradient(w, x, weights):
    """batch_gradient with its two products written as @, as it was before
    they became ndarray.dot."""
    r = x @ w
    np.minimum(r, 700.0, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.divide(weights, r, out=r)
    g = r @ x
    g /= -weights.size
    return g


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 700),
    d=st.integers(1, 40),
    decade=st.integers(-8, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_gradient_dot_matches_matmul_on_contiguous_rows(n, d, decade, seed):
    # dot and @ give the same bits on C-contiguous (n, d) rows and (n,)
    # weights, the only operands _train_rows hands batch_gradient (see
    # test_train_rows_hands_contiguous_rows); on strided views they may not.
    rng = np.random.default_rng(seed)
    x = 10.0**decade * rng.normal(size=(n, d))
    w, weights = rng.normal(size=d), rng.uniform(0.01, 3.0, size=n)
    assert x.flags.c_contiguous and w.flags.c_contiguous and weights.flags.c_contiguous
    got, want = batch_gradient(w, x, weights), matmul_batch_gradient(w, x, weights)
    assert got.shape == want.shape == (d,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("trainer", [train_weighted, train_pointwise])
@pytest.mark.parametrize("batch_size,gather_batches", [(7, 1), (16, 3), (10_000, 1)])
def test_train_rows_hands_contiguous_rows(rng, monkeypatch, trainer, batch_size, gather_batches):
    # Every minibatch _train_rows passes to batch_gradient is a C-contiguous
    # block of rows with C-contiguous weights and parameters, at every chunk
    # size of its gather, so its dot products keep @'s bits.
    ds = random_dataset(rng, n_queries=5, items_per_query=12)
    data = make_pairs(ds) if trainer is train_weighted else ds
    n = len(data) if trainer is train_weighted else ds.n_items
    d = ds.d + (trainer is train_pointwise)
    monkeypatch.setattr(training, "GATHER_BYTES", 8 * d * batch_size * gather_batches)
    seen, real = [], training.batch_gradient

    def checking(w, x, weights):
        seen.append(x.shape[0])
        assert x.ndim == 2 and x.shape[1] == d and x.shape[0] == weights.shape[0]
        assert x.flags.c_contiguous and weights.flags.c_contiguous and w.flags.c_contiguous
        return real(w, x, weights)

    monkeypatch.setattr(training, "batch_gradient", checking)
    trainer(data, rng.uniform(0.2, 0.8, size=n), TrainConfig(epochs=2, batch_size=batch_size))
    assert sum(seen) == 2 * n


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


STEP_CASES = [(3, 16), (2, 10_000), (0, 8), (1, 1)]


def count_adam_steps(monkeypatch, trainer, *args):
    """The training.adam_update calls of one trainer(*args) call."""
    calls = []
    real = training.adam_update

    def counting(*step_args):
        calls.append(step_args)
        return real(*step_args)

    monkeypatch.setattr(training, "adam_update", counting)
    trainer(*args)
    return len(calls)


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
        assert len(ps) == 1
        assert stable_sigmoid(pair_feature_diff(ps)[0] @ model.w) > 0.99

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
        # One full-batch step of the trainer is one Adam step on
        # batch_gradient, which is the derivative of weighted_loss.
        ds = random_dataset(rng, n_queries=2, items_per_query=4)
        ps = make_pairs(ds)
        weights = rng.uniform(0.2, 0.8, size=len(ps))
        cfg = TrainConfig(epochs=1, batch_size=10_000, seed=5)
        trained = train_weighted(ps, weights, cfg)

        w0 = np.zeros(ds.d)
        grad = batch_gradient(w0, pair_feature_diff(ps), weights)
        np.testing.assert_allclose(grad, numeric_gradient(ps, weights, w0), rtol=1e-6)
        # The shuffled batch order does not change a full-batch mean.
        _, w = adam_update(AdamState.zeros(ds.d), w0, grad, cfg)
        np.testing.assert_allclose(trained.w, w, atol=1e-12)

    def test_each_step_uses_batch_gradient(self, rng, monkeypatch):
        # The trainer's Adam steps take exactly the gradients batch_gradient returns.
        ps = make_pairs(random_dataset(rng))
        grads, steps = [], []
        real_grad, real_adam = training.batch_gradient, training.adam_update

        def recording_grad(*args):
            grads.append(real_grad(*args))
            return grads[-1]

        def recording_adam(state, params, grad, cfg):
            steps.append(grad)
            return real_adam(state, params, grad, cfg)

        monkeypatch.setattr(training, "batch_gradient", recording_grad)
        monkeypatch.setattr(training, "adam_update", recording_adam)
        train_weighted(ps, np.full(len(ps), 0.5), TrainConfig(epochs=2, batch_size=16))
        assert steps and len(grads) == len(steps)
        assert all(g is s for g, s in zip(grads, steps))

    @pytest.mark.parametrize("epochs,batch_size", STEP_CASES)
    def test_one_adam_step_per_minibatch(self, rng, monkeypatch, epochs, batch_size):
        # The benchmark counts inner steps by wrapping training.adam_update.
        ps = make_pairs(random_dataset(rng))
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size)
        steps = count_adam_steps(monkeypatch, train_weighted, ps, np.full(len(ps), 0.5), cfg)
        assert steps == epochs * math.ceil(len(ps) / batch_size)

    def test_peak_memory_below_a_quarter_of_pair_feature_rows(self, rng):
        # Training gathers x_i - x_j a chunk of minibatches at a time, so its
        # peak stays far below the (n_pairs, d) float64 block it never builds.
        # The epoch's int64 order alone takes 8 bytes a pair, 2d bytes a pair
        # is the bound, so d must exceed 4.
        ds = random_dataset(rng, n_queries=120, items_per_query=90, d=8)
        ps = make_pairs(ds)
        assert len(ps) >= 200_000
        weights = np.ones(len(ps))
        tracemalloc.start()
        try:
            train_weighted(ps, weights, TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(ps) * ds.d * 8 / 4

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

    def test_weight_length_error_names_pairs(self, rng):
        ps = make_pairs(random_dataset(rng))
        with pytest.raises(ValidationError) as exc:
            train_weighted(ps, np.full(3, 0.5), TrainConfig())
        assert str(exc.value) == f"weight table length (3,) != number of pairs {len(ps)}"


BAD_WEIGHT = "weights must be finite and positive"
# Each fault of the weights or orders handed to a trainer of n rows: the
# weights, the (orders, rows_i, rows_j) triple and the message, whose {unit}
# names the rows.
ROW_FAULTS = {
    "nan-weight": lambda n: (np.r_[np.nan, np.ones(n - 1)], None, BAD_WEIGHT),
    "inf-weight": lambda n: (np.r_[np.ones(n - 1), np.inf], None, BAD_WEIGHT),
    "zero-weight": lambda n: (np.r_[np.ones(n - 1), 0.0], None, BAD_WEIGHT),
    "negative-weight": lambda n: (np.full(n, -0.5), None, BAD_WEIGHT),
    "short-weights": lambda n: (
        np.ones(n - 1), None, rf"weight table length \({n - 1},\) != number of {{unit}} {n}"
    ),
    "orders-of-other-epochs": lambda n: (
        np.ones(n), (np.zeros((2, n), np.int64),) * 3,
        rf"orders of shape \(2, {n}\) for 3 epochs of {n} {{unit}}",
    ),
    "orders-of-other-rows": lambda n: (
        np.ones(n), (np.zeros((3, n), np.int64),) * 2 + (np.zeros((3, n + 1), np.int64),),
        rf"orders of shape \(3, {n + 1}\) for 3 epochs of {n} {{unit}}",
    ),
}


@pytest.mark.parametrize("fault", ROW_FAULTS.values(), ids=ROW_FAULTS)
@pytest.mark.parametrize("unit", ["pairs", "items"])
def test_both_trainers_check_rows_before_any_step(rng, monkeypatch, unit, fault):
    # train_weighted and train_pointwise hand their weights and orders to
    # one check in the shared loop, which runs before the first Adam step.
    def stepped(*args):
        raise AssertionError("trained before the weights and orders were checked")

    ds = random_dataset(rng)
    if unit == "pairs":
        trainer, rows = train_weighted, make_pairs(ds)
        n = len(rows)
    else:
        trainer, rows, n = train_pointwise, ds, ds.n_items
    weights, orders, msg = fault(n)
    monkeypatch.setattr(training, "adam_update", stepped)
    with pytest.raises(ValidationError, match=f"^{msg.format(unit=unit)}$"):
        trainer(rows, weights, TrainConfig(epochs=3), None, orders)


class TestTrainPointwise:
    @pytest.mark.parametrize("epochs,batch_size", STEP_CASES)
    def test_one_adam_step_per_minibatch(self, rng, monkeypatch, epochs, batch_size):
        # The pointwise trainer runs the pairwise loop, so its steps count
        # in the benchmark's adam_steps too: one a minibatch of items.
        ds = random_dataset(rng)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size)
        steps = count_adam_steps(monkeypatch, train_pointwise, ds, np.full(ds.n_items, 0.5), cfg)
        assert steps == epochs * math.ceil(ds.n_items / batch_size)

    def test_weight_length_error_names_items(self, rng):
        ds = random_dataset(rng, n_queries=1, items_per_query=6)
        with pytest.raises(ValidationError) as exc:
            train_pointwise(ds, np.full(3, 0.5), TrainConfig())
        assert str(exc.value) == "weight table length (3,) != number of items 6"

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_0_1_rejected_before_training(self, rng, monkeypatch, label):
        # Unchecked, a label-2 item trains as a positive of weight 3 (f = 2y - 1).
        ds = random_dataset(rng)
        ds.labels[3] = label

        def stepped(*args):
            raise AssertionError("trained before the labels were checked")

        monkeypatch.setattr(training, "adam_update", stepped)
        msg = r"^pointwise training needs every item label in \{0, 1\}$"
        with pytest.raises(ValidationError, match=msg):
            train_pointwise(ds, np.full(ds.n_items, 0.5), TrainConfig())

    def test_model_dimension_checked(self, rng):
        ds = random_dataset(rng, d=3)
        init = LinearRankingModel.zeros(2)
        with pytest.raises(ValidationError, match="model dimension 2 .* dimension 3"):
            train_pointwise(ds, np.full(ds.n_items, 0.5), TrainConfig(), init=init)

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
