"""The trainer's epoch orders composed with its row pairs.

shared_epoch_orders composes every epoch's order with the two row columns
once, and _train_rows gathers each chunk's rows of X by the composed rows;
without shared orders it composes each epoch as it draws it.  Either way
every minibatch holds the rows, in the order, of the loop that gathered
X.take(row_i.take(idx)) a chunk at a time, so every bit stays the same:
gathered_train_rows below is that loop, the differential oracle.
"""

import weakref

import numpy as np
import pytest

from conftest import random_dataset
from fairpair import reweight as rw
from fairpair import training
from fairpair.constraints import ConstraintKind
from fairpair.data import Dataset, generate_synthetic, make_pairs, split_queries
from fairpair.model import LinearRankingModel
from fairpair.reweight import FairTrainConfig, fair_train, pointwise_reweight_train
from fairpair.training import (
    TrainConfig,
    item_pairs,
    shared_epoch_orders,
    train_pointwise,
    train_weighted,
)

INTER = ConstraintKind.PAIR_INTER_GROUP
POINT = ConstraintKind.POINT_STATISTICAL


def gathered_train_rows(X, row_i, row_j, weights, cfg, w, orders, unit):
    """_train_rows' loop as it was before the composition: each chunk gathers
    its row indices from row_i and row_j, then its rows of X.  Shared orders
    are read for their permutations only."""
    n, bs = row_i.size, cfg.batch_size
    weights = np.asarray(weights, dtype=np.float64)
    epochs = training.epoch_orders(n, cfg) if orders is None else orders[0]
    chunk = bs * max(1, training.GATHER_BYTES // (8 * X.shape[1] * bs))
    w = w.copy()
    state = training.AdamState.zeros(w.size)
    for order in epochs:
        for lo in range(0, n, chunk):
            idx = order[lo : lo + chunk]
            xs = X.take(row_i.take(idx), axis=0)
            xs -= X.take(row_j.take(idx), axis=0)
            ws = weights.take(idx)
            for start in range(0, idx.size, bs):
                batch = slice(start, start + bs)
                grad = training.batch_gradient(w, xs[batch], ws[batch])
                state, w = training.adam_update(state, w, grad, cfg)
    return w


def with_gathered_rows(monkeypatch, run):
    """run() with _train_rows replaced by the oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(training, "_train_rows", gathered_train_rows)
        return run()


def same_model(a, b):
    return a.w.tobytes() == b.w.tobytes() and a.b == b.b


# (batch_size, gather_batches): a chunk of one minibatch, of several, and
# one minibatch larger than the pair set.
SIZES = [(7, 1), (13, 3), (10_000, 1)]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("epochs", [0, 3])
@pytest.mark.parametrize("batch_size,gather_batches", SIZES)
@pytest.mark.parametrize("trainer", ["pairs", "items"])
def test_trainers_match_the_chunk_gather(
    rng, monkeypatch, trainer, batch_size, gather_batches, epochs, shared
):
    ds = random_dataset(rng, n_queries=5, items_per_query=11, d=4, K=3)
    if trainer == "pairs":
        data, fit, d = make_pairs(ds), train_weighted, ds.d
        rows = (data.row_i, data.row_j, ds.n_items)
    else:
        data, rows, fit, d = ds, item_pairs(ds), train_pointwise, ds.d + 1
    n = rows[0].size
    assert batch_size >= n or n % batch_size
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=3)
    monkeypatch.setattr(training, "GATHER_BYTES", 8 * d * batch_size * gather_batches)
    orders = shared_epoch_orders(*rows, cfg) if shared else None
    weights = rng.uniform(0.05, 3.0, size=n)
    init = LinearRankingModel(rng.normal(size=ds.d), 0.5)
    got = fit(data, weights, cfg, init, orders)
    want = with_gathered_rows(monkeypatch, lambda: fit(data, weights, cfg, init, orders))
    assert same_model(got, want)
    if not epochs:
        assert same_model(got, init)


def guard_splits():
    ds, _ = generate_synthetic(24, 16, d=3, K=4, bias_strength=1.0, seed=0)
    return split_queries(ds, 0.2, 0.16, seed=1)[:2]


@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("T", [0, 3])
def test_fair_train_matches_the_chunk_gather(monkeypatch, T, warm_start):
    train, valid = guard_splits()
    inner = TrainConfig(epochs=3, batch_size=50, seed=2)
    cfg = FairTrainConfig(T=T, inner=inner, warm_start=warm_start, delta_set="validation")
    model, coeffs, history = fair_train(train, valid, INTER, cfg)
    ref, ref_coeffs, ref_history = with_gathered_rows(
        monkeypatch, lambda: fair_train(train, valid, INTER, cfg)
    )
    assert same_model(model, ref)
    assert coeffs.values.tobytes() == ref_coeffs.values.tobytes()
    assert [r.delta.tobytes() for r in history] == [r.delta.tobytes() for r in ref_history]
    assert [r.auc_eval for r in history] == [r.auc_eval for r in ref_history]


@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("T", [0, 3])
def test_pointwise_run_matches_the_chunk_gather(monkeypatch, T, warm_start):
    train, valid = guard_splits()
    inner = TrainConfig(epochs=3, batch_size=40, seed=2)
    cfg = FairTrainConfig(T=T, inner=inner, warm_start=warm_start, delta_set="validation")
    run = lambda: pointwise_reweight_train(train, valid, POINT, cfg)  # noqa: E731
    assert same_model(run(), with_gathered_rows(monkeypatch, run))


def few_pairs(n_items):
    """A dataset of n_items items and one pair, its two items the last rows:
    every other item is a negative of a query with no positive."""
    labels = np.zeros(n_items, dtype=np.int64)
    labels[-2] = 1
    features = np.linspace(-1.0, 1.0, 2 * n_items).reshape(n_items, 2)
    offsets = np.array([0, n_items - 2, n_items])
    groups = np.arange(n_items) % 2
    return Dataset(["many", "pair"], offsets, features, labels, groups, 2)


@pytest.mark.parametrize(
    "n_items,dtype",
    [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_composed_rows_take_the_dtype_of_the_row_count(n_items, dtype):
    # One pair, so the orders are uint8 however many rows the pairs index.
    ds = few_pairs(n_items)
    ps = make_pairs(ds)
    assert len(ps) == 1 and ps.row_i[0] == n_items - 2 and ps.row_j[0] == n_items - 1
    cfg = TrainConfig(epochs=2, seed=1)
    orders, rows_i, rows_j = shared = shared_epoch_orders(ps.row_i, ps.row_j, ds.n_items, cfg)
    assert orders.dtype == np.uint8 and rows_i.dtype == rows_j.dtype == dtype
    assert rows_i.tolist() == [[n_items - 2]] * 2 and rows_j.tolist() == [[n_items - 1]] * 2
    weights = np.array([0.7])
    got = train_weighted(ps, weights, cfg, None, shared)
    assert same_model(got, train_weighted(ps, weights, cfg))


@pytest.mark.parametrize("n_items,dtype", [(255, np.uint8), (256, np.uint16), (65_536, np.uint32)])
def test_pointwise_rows_count_the_zero_row(n_items, dtype):
    # The pointwise rows hold the items and a zero row after them.
    ds = few_pairs(n_items)
    row_i, row_j, n_rows = item_pairs(ds)
    assert n_rows == n_items + 1
    _, rows_i, rows_j = shared_epoch_orders(row_i, row_j, n_rows, TrainConfig(epochs=1))
    assert rows_i.dtype == rows_j.dtype == dtype
    both = np.sort(np.concatenate([rows_i[0], rows_j[0]]))
    np.testing.assert_array_equal(both, np.r_[np.arange(n_items), np.full(n_items, n_items)])


def test_composition_is_read_only(rng):
    ps = make_pairs(random_dataset(rng))
    for array in shared_epoch_orders(ps.row_i, ps.row_j, ps.source.n_items, TrainConfig(epochs=2)):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def tracking_weights(monkeypatch, name, seen):
    """Wrap reweight's ``name`` so each weight array it returns is tracked by
    a weak reference, and each call first checks that no earlier one is alive."""
    real = getattr(rw, name)

    def tracked(*args, **kwargs):
        assert_no_weights_alive(seen)
        weights = real(*args, **kwargs)
        seen.append(weakref.ref(weights))
        return weights

    monkeypatch.setattr(rw, name, tracked)


def assert_no_weights_alive(seen):
    assert all(ref() is None for ref in seen), "an earlier weight array is still alive"


def checking_measure(monkeypatch, name, seen):
    real = getattr(rw, name)

    def checked(*args, **kwargs):
        assert_no_weights_alive(seen)
        return real(*args, **kwargs)

    monkeypatch.setattr(rw, name, checked)


@pytest.mark.parametrize("warm_start", [False, True])
def test_no_earlier_weights_alive_when_weighing_or_measuring(monkeypatch, warm_start):
    # The outer loop drops each weight array once its fit is done, so neither
    # the next weighting nor a measurement runs beside it.
    train, valid = guard_splits()
    inner = TrainConfig(epochs=2, batch_size=64, seed=2)
    cfg = FairTrainConfig(T=3, inner=inner, warm_start=warm_start, delta_set="validation")
    pair_seen, point_seen = [], []
    tracking_weights(monkeypatch, "pair_weights", pair_seen)
    checking_measure(monkeypatch, "expected_bias", pair_seen)
    tracking_weights(monkeypatch, "point_weights", point_seen)
    checking_measure(monkeypatch, "point_expected_bias", point_seen)
    fair_train(train, valid, INTER, cfg)
    pointwise_reweight_train(train, valid, POINT, cfg)
    assert len(pair_seen) == len(point_seen) == cfg.T + 1
