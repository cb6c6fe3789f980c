"""Differential tests: the inner Adam loop against in-test copies of its
earlier forms.

The earlier trainers fancy-indexed each minibatch twice, stepped the
pairwise bias through Adam with a zero gradient, used a sigmoid that
masked its two branches, took each minibatch's rows from one (n_pairs, d)
block of pair feature rows, read each pair's label, and shuffled with
``rng.permutation``.  The current code must give the same bits.
"""

import math

import numpy as np
import pytest

from conftest import pair_feature_diff, pair_subset, random_dataset
from fairpair import training
from fairpair.data import PairSet, make_pairs
from fairpair.model import LinearRankingModel, clamp_prob, stable_sigmoid
from fairpair.training import (
    AdamState,
    TrainConfig,
    adam_update,
    batch_gradient,
    train_pointwise,
    train_weighted,
)


def old_stable_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def old_adam_update(state, params, grad, cfg):
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
    return AdamState(m, v, t), new_params


def old_train_weighted(ps, weights, cfg, init=None):
    n = len(ps)
    weights = np.asarray(weights, dtype=np.float64)
    if init is None:
        init = LinearRankingModel.zeros(ps.source.d)
    diff = pair_feature_diff(ps)
    labels = ps.source.labels
    lab = (labels[ps.row_i] > labels[ps.row_j]).astype(np.float64)
    params = np.concatenate([init.w, [init.b]])
    state = AdamState.zeros(params.size)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            p = clamp_prob(old_stable_sigmoid(diff[idx] @ params[:-1]))
            resid = weights[idx] * (p - lab[idx])
            grad = np.concatenate([resid @ diff[idx] / idx.size, [0.0]])
            state, params = old_adam_update(state, params, grad, cfg)
    return LinearRankingModel(params[:-1].copy(), float(params[-1]))


def block_train_weighted(ps, weights, cfg, init=None):
    """train_weighted as it was before the chunked gather: every minibatch
    takes its rows from one (n_pairs, d) block of pair feature rows."""
    n = len(ps)
    if init is None:
        init = LinearRankingModel.zeros(ps.source.d)
    diff = pair_feature_diff(ps)
    w = init.w.copy()
    state = AdamState.zeros(ps.source.d)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = np.take(diff, idx, axis=0)
            grad = batch_gradient(w, x, weights.take(idx))
            state, w = adam_update(state, w, grad, cfg)
    return LinearRankingModel(w, float(init.b))


def old_train_pointwise(ds, weights, cfg, init=None):
    X = ds.features
    y = ds.labels.astype(np.float64)
    n = y.size
    weights = np.asarray(weights, dtype=np.float64)
    if init is None:
        init = LinearRankingModel.zeros(ds.d)
    params = np.concatenate([init.w, [init.b]])
    state = AdamState.zeros(params.size)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            p = clamp_prob(old_stable_sigmoid(X[idx] @ params[:-1] + params[-1]))
            resid = weights[idx] * (p - y[idx])
            grad = np.concatenate([resid @ X[idx] / idx.size, [resid.mean()]])
            state, params = old_adam_update(state, params, grad, cfg)
    return LinearRankingModel(params[:-1].copy(), float(params[-1]))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_model(new, old):
    np.testing.assert_array_equal(bits(new.w), bits(old.w))
    assert bits(new.b) == bits(old.b)
    assert type(new.b) is float


@pytest.fixture
def pairs(rng):
    ps = make_pairs(random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3))
    return ps, rng.uniform(0.05, 3.0, size=len(ps))


def test_fixture_fits_the_batch_cases(pairs):
    ps, _ = pairs
    assert len(ps) % 64 != 0 and len(ps) % 17 != 0 and len(ps) < 10_000


@pytest.mark.parametrize(
    "cfg_kwargs,init",
    [
        pytest.param({"epochs": 4, "batch_size": 64}, None, id="ragged-last-batch"),
        pytest.param({"epochs": 3, "batch_size": 10_000}, None, id="batch-larger-than-n"),
        pytest.param({"epochs": 0}, (0.3, 0.37), id="zero-epochs"),
        pytest.param({"epochs": 5, "batch_size": 17}, (0.0, -0.0), id="bias-negative-zero"),
        pytest.param({"epochs": 5, "batch_size": 17}, (0.0, 0.37), id="bias-0.37"),
        pytest.param({"epochs": 6, "batch_size": 32, "seed": 4}, (1.0, -1.25), id="warm-start"),
        pytest.param({"epochs": 2, "batch_size": 8}, (40.0, 2.0), id="saturated-scores"),
        pytest.param({"epochs": 3, "batch_size": 1, "learning_rate": 0.3}, None, id="batch-1"),
    ],
)
def test_train_weighted_matches_old_loop(rng, pairs, cfg_kwargs, init):
    ps, weights = pairs
    cfg = TrainConfig(**cfg_kwargs)
    model = None
    if init is not None:
        scale, b = init
        model = LinearRankingModel(scale * rng.normal(size=ps.source.d), b)
    assert_same_model(
        train_weighted(ps, weights, cfg, init=model),
        old_train_weighted(ps, weights, cfg, init=model),
    )


def test_train_weighted_leaves_init_untouched(rng, pairs):
    ps, weights = pairs
    init = LinearRankingModel(rng.normal(size=ps.source.d), 0.5)
    w0 = init.w.copy()
    for epochs in (0, 2):
        out = train_weighted(ps, weights, TrainConfig(epochs=epochs), init=init)
        assert out.w is not init.w
        np.testing.assert_array_equal(init.w, w0)


def test_warm_started_outer_chain_matches(rng, pairs):
    # fair_train's warm start feeds each trained model back in as init.
    ps, weights = pairs
    cfg = TrainConfig(epochs=3, batch_size=40, seed=2)
    new = old = None
    for it in range(4):
        w_it = weights * (1.0 + 0.1 * it)
        new = train_weighted(ps, w_it, cfg, init=new)
        old = old_train_weighted(ps, w_it, cfg, init=old)
        assert_same_model(new, old)


@pytest.mark.parametrize("n", [1, 10, 1000, 119_896])
def test_epoch_order_is_rng_permutation(rng, monkeypatch, n):
    # Each epoch visits the pairs in the order rng.permutation(n) gives,
    # read back from the weights (weight t + 1 on pair t) of each step.
    ds = random_dataset(rng, n_queries=1, items_per_query=2, d=2, K=1)
    ps = PairSet(np.zeros(n, dtype=np.int32), np.ones(n, dtype=np.int32), ds)
    seen = []
    real = training.batch_gradient

    def recording(w, x, weights):
        seen.append(weights.copy())
        return real(w, x, weights)

    monkeypatch.setattr(training, "batch_gradient", recording)
    cfg = TrainConfig(epochs=3, batch_size=4096, seed=7)
    train_weighted(ps, np.arange(1.0, n + 1), cfg)
    visited = np.concatenate(seen).astype(np.int64) - 1
    expected = np.random.default_rng(cfg.seed)
    for epoch in visited.reshape(cfg.epochs, n):
        np.testing.assert_array_equal(epoch, expected.permutation(n))


def chunk_budget(monkeypatch, d, batch_size, batches):
    """Set the gather budget to ``batches`` whole minibatches of feature rows."""
    monkeypatch.setattr(training, "GATHER_BYTES", 8 * d * batch_size * batches)
    return batch_size * batches


@pytest.mark.parametrize("d", [1, 5, 11, 40])
@pytest.mark.parametrize("batch_size", [1, 3, 100])
def test_chunked_gather_matches_block_loop(rng, monkeypatch, batch_size, d):
    # Three chunks and a ragged fourth, whose last minibatch is ragged too;
    # minibatch views start at byte offsets 8 * d * batch_size * k.
    ps = make_pairs(random_dataset(rng, n_queries=6, items_per_query=20, d=d, K=2))
    chunk = chunk_budget(monkeypatch, d, batch_size, max(3, 150 // batch_size))
    sub = pair_subset(ps, rng.permutation(len(ps))[: 3 * chunk + batch_size // 2 + 1])
    assert len(sub) % chunk != 0 and (batch_size == 1 or len(sub) % batch_size != 0)
    weights = rng.uniform(0.05, 3.0, size=len(sub))
    cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=3)
    assert_same_model(
        train_weighted(sub, weights, cfg), block_train_weighted(sub, weights, cfg)
    )


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below-one-chunk", "one-chunk", "chunk-plus-1"])
def test_chunk_boundaries_match_block_loop(rng, monkeypatch, extra):
    ps = make_pairs(random_dataset(rng, n_queries=3, items_per_query=8, d=3, K=2))
    chunk = chunk_budget(monkeypatch, 3, 7, 4)
    idx = rng.permutation(len(ps))[: chunk + extra]
    sub = pair_subset(ps, idx)
    weights = rng.uniform(0.05, 3.0, size=len(sub))
    cfg = TrainConfig(epochs=3, batch_size=7, seed=1)
    assert_same_model(
        train_weighted(sub, weights, cfg), block_train_weighted(sub, weights, cfg)
    )


@pytest.mark.parametrize(
    "gather_bytes,cfg_kwargs,init",
    [
        pytest.param(8 * 5 * 10, {"epochs": 2, "batch_size": 50}, None, id="batch-over-budget"),
        pytest.param(None, {"epochs": 3, "batch_size": 16, "seed": 4}, (1.0, -1.25),
                     id="warm-start"),
        pytest.param(None, {"epochs": 0}, (0.3, 0.37), id="zero-epochs"),
        pytest.param(None, {"epochs": 2, "batch_size": 37}, None, id="module-budget"),
    ],
)
def test_chunked_gather_cases_match_block_loop(rng, monkeypatch, gather_bytes, cfg_kwargs, init):
    # The module budget holds 177 minibatches of 37 five-wide rows, so that
    # case needs more than 6549 pairs to cross a chunk.
    ps = make_pairs(random_dataset(rng, n_queries=10, items_per_query=60, d=5, K=2))
    if gather_bytes is None:
        assert len(ps) > 37 * (training.GATHER_BYTES // (8 * 5 * 37))
    else:
        monkeypatch.setattr(training, "GATHER_BYTES", gather_bytes)
    weights = rng.uniform(0.05, 3.0, size=len(ps))
    cfg = TrainConfig(**cfg_kwargs)
    model = None
    if init is not None:
        scale, b = init
        model = LinearRankingModel(scale * rng.normal(size=ps.source.d), b)
    assert_same_model(
        train_weighted(ps, weights, cfg, init=model),
        block_train_weighted(ps, weights, cfg, init=model),
    )


@pytest.mark.parametrize(
    "cfg_kwargs,init",
    [
        pytest.param({"epochs": 4, "batch_size": 7}, None, id="ragged-last-batch"),
        pytest.param({"epochs": 3, "batch_size": 1000}, None, id="batch-larger-than-n"),
        pytest.param({"epochs": 0}, (0.4, -0.0), id="zero-epochs"),
        pytest.param({"epochs": 5, "batch_size": 16, "seed": 8}, (1.0, 0.37), id="warm-start"),
    ],
)
def test_train_pointwise_matches_old_loop(rng, cfg_kwargs, init):
    ds = random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3)
    weights = rng.uniform(0.05, 3.0, size=ds.n_items)
    cfg = TrainConfig(**cfg_kwargs)
    model = None
    if init is not None:
        scale, b = init
        model = LinearRankingModel(scale * rng.normal(size=ds.d), b)
    assert_same_model(
        train_pointwise(ds, weights, cfg, init=model),
        old_train_pointwise(ds, weights, cfg, init=model),
    )


def test_adam_update_matches_old(rng):
    cfg = TrainConfig(learning_rate=0.03, beta1=0.8, beta2=0.99, eps_adam=1e-7)
    state = old_state = AdamState.zeros(6)
    params = old_params = rng.normal(size=6)
    for step in range(200):
        scale = 10.0 ** rng.integers(-12, 6)
        grad = scale * rng.normal(size=6)
        grad[step % 6] = 0.0
        state, params = adam_update(state, params, grad, cfg)
        old_state, old_params = old_adam_update(old_state, old_params, grad, cfg)
        assert state.t == old_state.t
        for a, b in ((state.m, old_state.m), (state.v, old_state.v), (params, old_params)):
            np.testing.assert_array_equal(bits(a), bits(b))


def test_adam_update_leaves_inputs_untouched(rng):
    state = AdamState(rng.normal(size=3), rng.uniform(size=3), 4)
    params, grad = rng.normal(size=3), rng.normal(size=3)
    before = [a.copy() for a in (state.m, state.v, params, grad)]
    adam_update(state, params, grad, TrainConfig())
    for a, b in zip((state.m, state.v, params, grad), before):
        np.testing.assert_array_equal(a, b)


EDGE_VALUES = [
    math.inf, -math.inf, 0.0, -0.0, math.nan, -math.nan, 1e3, -1e3,
    1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 745.2, -745.2, 709.8, -709.8,
    709.0, -745.0,
]


def test_sigmoid_edge_values_bit_identical():
    z = np.array(EDGE_VALUES)
    np.testing.assert_array_equal(bits(stable_sigmoid(z)), bits(old_stable_sigmoid(z)))
    for v in EDGE_VALUES:
        for arg in (v, np.float64(v), np.array(v)):
            new, old = stable_sigmoid(arg), old_stable_sigmoid(arg)
            assert type(new) is float
            assert bits(new) == bits(old)


def test_sigmoid_random_arrays_bit_identical(rng):
    for scale in (1e-8, 1.0, 30.0, 800.0):
        z = scale * rng.standard_normal(size=(7, 129))
        new = stable_sigmoid(z)
        assert new.shape == z.shape
        np.testing.assert_array_equal(bits(new), bits(old_stable_sigmoid(z)))
    z = rng.standard_normal(size=50)
    np.testing.assert_array_equal(
        bits(stable_sigmoid(z[::3])), bits(old_stable_sigmoid(z[::3]))
    )


def test_sigmoid_empty_and_list_inputs():
    assert stable_sigmoid(np.zeros(0)).shape == (0,)
    np.testing.assert_array_equal(stable_sigmoid([0.0, 0.0]), [0.5, 0.5])
