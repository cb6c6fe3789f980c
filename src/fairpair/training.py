"""Weighted pairwise training with a from-scratch Adam, and the pointwise
baseline on the same minibatch loop.

The pairwise objective is the mean over pairs of
``weight * -log(predicted order probability)``: every pair of a PairSet
has its positive item first, so its pair label is 1, and its weight
stands for its mirror too (see reweight.pair_weights).  train_pointwise
fits the item cross-entropy as that loss on item-against-zero rows, so
both trainers share one loop and one residual form (batch_gradient).
Trainings on one set of pairs share its epoch orders composed with its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan, sqrt

import numpy as np

from .data import GATHER_BYTES, Dataset, PairSet, pair_chunks
from .errors import ValidationError, require_types
from .model import LinearRankingModel, check_dimension


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    epochs: int = 30
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        vars(self).update(require_types(
            vars(self),
            ints=("epochs", "batch_size", "seed"),
            floats=("learning_rate", "beta1", "beta2", "eps_adam"),
        ))
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.eps_adam <= 0:
            raise ValidationError("eps_adam must be > 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(eq=False)
class AdamState:
    """First/second moment accumulators, as lists of Python floats, and the
    step counter; adam_update steps all three in place."""

    m: list[float]
    v: list[float]
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls([0.0] * n, [0.0] * n, 0)


def adam_update(
    state: AdamState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam step on 1-d arrays: steps ``state`` in place and
    returns it with the new parameters, a fresh array; params and grad are
    left untouched.

    Each coordinate takes m = b1*m + (1-b1)*g, v = ((1-b2)*g)*g + b2*v and
    p - ((m/c1)*lr) / (sqrt(v/c2) + eps), with c = 1 - b**t, on Python
    floats: one IEEE double operation at a time, in the order of the numpy
    form this replaced, so the bits are the same (NaN payloads aside).
    Where v/c2 is negative or NaN (only a hand-built state) the root is NaN,
    as numpy's is, not math.sqrt's ValueError.  The moments stay Python
    floats from a training's first step to its last, so a step converts
    only params and grad.  At small d numpy's fixed cost per call outweighs
    the float loop, which grows with d (ROADMAP item 4 has the timings).
    """
    m, v = state.m, state.v
    if not (len(m) == len(v) == params.size and params.shape == grad.shape):
        raise ValidationError("adam_update: mismatched shapes")
    if params.ndim != 1:
        raise ValidationError(f"adam_update: {params.ndim}-d parameters, not 1-d")
    if state.t < 0:
        raise ValidationError(f"adam_update: negative step count {state.t}")
    state.t = t = state.t + 1
    b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.eps_adam
    a1, a2, c1, c2 = 1.0 - b1, 1.0 - b2, 1.0 - b1**t, 1.0 - b2**t
    p = params.tolist()
    for i, g in enumerate(grad.tolist()):
        m[i] = mi = b1 * m[i] + a1 * g
        v[i] = vi = a2 * g * g + b2 * v[i]
        s = vi / c2
        p[i] -= mi / c1 * lr / ((sqrt(s) if s >= 0.0 else nan) + eps)
    return state, np.array(p)


def batch_gradient(w: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient in w of the mean weighted pair loss over one minibatch.

    ``x`` holds the batch's feature differences and ``weights`` its pair
    weights.  Every pair label is 1, so with z = x @ w pair t's residual is
    -weight_t * sigmoid(-z_t) = -weight_t / (1 + exp(z_t)), formed directly:
    it stays within a few ulp where 1 - sigmoid(z) would cancel, and needs
    no clamp.  Capping z at 700 keeps exp finite: above the cap the residual
    is weight / (1 + e^700) < weight * 1e-304, and the true one is smaller
    still.  Per minibatch the cost is numpy's fixed cost per call, so every
    step but the two products works in place, and the products are
    ndarray.dot, which costs less a call than @.  On C-contiguous rows (as
    _train_rows hands it) dot gives @'s bits; on strided views the two may
    differ in the last bits.  A pairwise bias has no entry, as it cancels
    in every score difference; train_pointwise's rows carry it.
    """
    r = x.dot(w)
    np.minimum(r, 700.0, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.divide(weights, r, out=r)
    g = r.dot(x)
    g /= -weights.size
    return g


def epoch_orders(n: int, cfg: TrainConfig):
    """Yield the cfg.epochs orders in which a trainer visits n pairs or items:
    successive permutations of a generator seeded by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        yield rng.permutation(n)


def _composed_orders(row_i, row_j, n_rows: int, cfg: TrainConfig):
    """Yield epoch_orders(n, cfg) of n row pairs with their rows in each order,
    (order, row_i[order], row_j[order]); the rows are one buffer, overwritten a
    chunk at a time, of the narrowest unsigned dtype that holds n_rows - 1."""
    rows = np.empty((2, row_i.size), dtype=np.min_scalar_type(max(n_rows - 1, 0)))
    for order in epoch_orders(row_i.size, cfg):
        for part in pair_chunks(row_i.size):
            rows[:, part] = row_i.take(order[part]), row_j.take(order[part])
        yield order, rows[0], rows[1]


def shared_epoch_orders(row_i, row_j, n_rows: int, cfg: TrainConfig):
    """The epochs _composed_orders yields, drawn once, for callers that train
    several times on one set of row pairs with one cfg: read-only (cfg.epochs, n)
    arrays (orders, rows_i, rows_j), orders of the narrowest dtype holding n - 1."""
    n = row_i.size
    orders = np.empty((cfg.epochs, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    rows = np.empty((2, cfg.epochs, n), dtype=np.min_scalar_type(max(n_rows - 1, 0)))
    for e, order in enumerate(epoch_orders(n, cfg)):
        orders[e] = order
        for part in pair_chunks(n):
            rows[:, e, part] = row_i.take(order[part]), row_j.take(order[part])
    orders.flags.writeable = rows.flags.writeable = False
    return orders, rows[0], rows[1]


def _train_rows(X, row_i, row_j, weights, cfg: TrainConfig, w, orders, unit: str) -> np.ndarray:
    """Minibatch Adam from ``w`` on the weighted loss of pairs (X[row_i], X[row_j])
    at label 1; each epoch walks its order a chunk of whole minibatches of
    gathered rows at a time (see GATHER_BYTES).  Returns a stepped copy of w.

    Every trainer's inputs are checked here, before any step: one finite,
    positive weight a row pair, and ``orders`` either None, when each epoch is
    composed as it is drawn, or shared_epoch_orders' (cfg.epochs, n) triple,
    whose composed rows each chunk gathers directly; ``unit`` names the rows."""
    n, bs = row_i.size, cfg.batch_size
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValidationError(f"weight table length {weights.shape} != number of {unit} {n}")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValidationError("weights must be finite and positive")
    if orders is None:
        orders = _composed_orders(row_i, row_j, X.shape[0], cfg)
    else:
        shape = next((a.shape for a in orders if a.shape != (cfg.epochs, n)), None)
        if shape is not None:
            raise ValidationError(f"orders of shape {shape} for {cfg.epochs} epochs of {n} {unit}")
        orders = zip(*orders)
    chunk = bs * max(1, GATHER_BYTES // (8 * X.shape[1] * bs))
    w = w.copy()
    state = AdamState.zeros(w.size)
    for order, rows_i, rows_j in orders:
        for lo in range(0, n, chunk):
            xs = X.take(rows_i[lo : lo + chunk], axis=0)
            xs -= X.take(rows_j[lo : lo + chunk], axis=0)
            ws = weights.take(order[lo : lo + chunk])
            for start in range(0, ws.size, bs):
                batch = slice(start, start + bs)
                grad = batch_gradient(w, xs[batch], ws[batch])
                state, w = adam_update(state, w, grad, cfg)
    return w


def train_weighted(
    ps: PairSet,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
    orders: tuple | None = None,
) -> LinearRankingModel:
    """Minimize the weighted pairwise loss with minibatch Adam.

    Pairs are reshuffled every epoch in the orders of epoch_orders, so the
    result is deterministic for fixed inputs; ``orders``, when given, must be
    shared_epoch_orders(ps.row_i, ps.row_j, ps.source.n_items, cfg), and is
    not drawn again.  ``cfg.batch_size`` counts pairs of ``ps``.  The bias is
    returned as given in ``init``: a zero gradient leaves Adam's step 0, so
    stepping it would return it bit for bit, and only w is stepped.  epochs=0
    returns the initial model unchanged.
    """
    if not len(ps):
        raise ValidationError("cannot train on an empty pair set")
    d = ps.source.d
    if init is None:
        init = LinearRankingModel.zeros(d)
    check_dimension(init, d)
    w = _train_rows(ps.source.features, ps.row_i, ps.row_j, weights, cfg, init.w, orders, "pairs")
    return LinearRankingModel(w, float(init.b))


def item_pairs(ds: Dataset) -> tuple[np.ndarray, np.ndarray, int]:
    """train_pointwise's row pairs of ds and its row count: every item against
    a zero row after the items, as (item, zero) if positive, else (zero, item)."""
    n, pos, items = ds.n_items, ds.labels == 1, np.arange(ds.n_items)
    return np.where(pos, items, n), np.where(pos, n, items), n + 1


def train_pointwise(
    ds: Dataset,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
    orders: tuple | None = None,
) -> LinearRankingModel:
    """Weighted logistic regression on items (the pointwise ordering method),
    fitted as the pair loss of rows [x, 1] against a zero row: (item, zero) at
    label 1 and (zero, item) at label 0, so the bias, the last weight, gets
    its gradient.  ``orders`` is as in train_weighted, over item_pairs(ds)."""
    n = ds.n_items
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    if ((ds.labels != 0) & (ds.labels != 1)).any():
        raise ValidationError("pointwise training needs every item label in {0, 1}")
    if init is None:
        init = LinearRankingModel.zeros(ds.d)
    check_dimension(init, ds.d)
    row_i, row_j, n_rows = item_pairs(ds)
    X = np.zeros((n_rows, ds.d + 1))
    X[:n, :-1], X[:n, -1] = ds.features, 1.0
    params = np.append(init.w, init.b)
    params = _train_rows(X, row_i, row_j, weights, cfg, params, orders, "items")
    return LinearRankingModel(params[:-1], float(params[-1]))
