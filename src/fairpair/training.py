"""Weighted pairwise training with a from-scratch Adam, and the pointwise
baseline on the same minibatch loop.

The pairwise objective is the mean over pairs of
``weight * -log(predicted order probability)``: every pair of a PairSet
has its positive item first, so its pair label is 1, and its weight
stands for its mirror too (see reweight.pair_weights).  train_pointwise
fits the item cross-entropy as that loss on item-against-zero rows, so
both trainers share one loop and one residual form (batch_gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GATHER_BYTES, Dataset, PairSet
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
        require_types(
            vars(self),
            ints=("epochs", "batch_size", "seed"),
            floats=("learning_rate", "beta1", "beta2", "eps_adam"),
        )
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
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_update(
    state: AdamState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam step; returns fresh state and parameters."""
    if not (state.m.shape == state.v.shape == params.shape == grad.shape):
        raise ValidationError("adam_update: mismatched shapes")
    t = state.t + 1
    m = cfg.beta1 * state.m
    m += (1.0 - cfg.beta1) * grad
    v = (1.0 - cfg.beta2) * grad
    v *= grad
    v += cfg.beta2 * state.v
    step = m / (1.0 - cfg.beta1**t)
    step *= cfg.learning_rate
    denom = v / (1.0 - cfg.beta2**t)
    np.sqrt(denom, out=denom)
    denom += cfg.eps_adam
    step /= denom
    return AdamState(m, v, t), params - step


def batch_gradient(w: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient in w of the mean weighted pair loss over one minibatch.

    ``x`` holds the batch's feature differences and ``weights`` its pair
    weights.  Every pair label is 1, so with z = x @ w pair t's residual is
    -weight_t * sigmoid(-z_t) = -weight_t / (1 + exp(z_t)), formed directly:
    it stays within a few ulp where 1 - sigmoid(z) would cancel, and needs
    no clamp.  Capping z at 700 keeps exp finite: above the cap the residual
    is weight / (1 + e^700) < weight * 1e-304, and the true one is smaller
    still.  Per minibatch the cost is numpy's fixed cost per call, so every
    step but the two products works in place.  A pairwise bias has no entry,
    as it cancels in every score difference; train_pointwise's rows carry it.
    """
    r = x @ w
    np.minimum(r, 700.0, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.divide(weights, r, out=r)
    g = r @ x
    g /= -weights.size
    return g


def _check_weights(weights, n: int, unit: str) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValidationError(f"weight table length {weights.shape} != number of {unit} {n}")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValidationError("weights must be finite and positive")
    return weights


def epoch_orders(n: int, cfg: TrainConfig):
    """Yield the cfg.epochs orders in which a trainer visits n pairs or items:
    successive permutations of a generator seeded by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        yield rng.permutation(n)


def shared_epoch_orders(n: int, cfg: TrainConfig) -> np.ndarray:
    """epoch_orders(n, cfg) drawn once, for callers that train several times
    on one pair set with one cfg: a read-only (cfg.epochs, n) array of the
    narrowest unsigned dtype that holds n - 1, so 2 bytes a pair per epoch
    up to 65536 pairs and 4 above."""
    orders = np.empty((cfg.epochs, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    for row, order in zip(orders, epoch_orders(n, cfg)):
        row[...] = order
    orders.flags.writeable = False
    return orders


def _train_rows(X, row_i, row_j, weights, cfg: TrainConfig, w, orders) -> np.ndarray:
    """Minibatch Adam from ``w`` on the weighted loss of pairs (X[row_i], X[row_j])
    at label 1; each epoch walks its order a chunk of whole minibatches of
    gathered rows at a time (see GATHER_BYTES).  Returns a stepped copy of w."""
    n, bs = row_i.size, cfg.batch_size
    chunk = bs * max(1, GATHER_BYTES // (8 * X.shape[1] * bs))
    w = w.copy()
    state = AdamState.zeros(w.size)
    for order in orders:
        for lo in range(0, n, chunk):
            idx = order[lo : lo + chunk]
            xs = X.take(row_i.take(idx), axis=0)
            xs -= X.take(row_j.take(idx), axis=0)
            ws = weights.take(idx)
            for start in range(0, idx.size, bs):
                batch = slice(start, start + bs)
                grad = batch_gradient(w, xs[batch], ws[batch])
                state, w = adam_update(state, w, grad, cfg)
    return w


def train_weighted(
    ps: PairSet,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
    orders: np.ndarray | None = None,
) -> LinearRankingModel:
    """Minimize the weighted pairwise loss with minibatch Adam.

    Pairs are reshuffled every epoch in the orders of epoch_orders, so the
    result is deterministic for fixed inputs; ``orders``, when given, must
    be those orders, as shared_epoch_orders returns them, and is not drawn
    again.  ``cfg.batch_size`` counts pairs of ``ps``.  The bias is returned
    as given in ``init``: a zero gradient leaves Adam's step 0, so stepping
    it would return it bit for bit, and only w is stepped.  epochs=0
    returns the initial model unchanged.
    """
    if not len(ps):
        raise ValidationError("cannot train on an empty pair set")
    n = len(ps)
    weights = _check_weights(weights, n, "pairs")
    if orders is None:
        orders = epoch_orders(n, cfg)
    elif orders.shape != (cfg.epochs, n):
        raise ValidationError(
            f"orders of shape {orders.shape} for {cfg.epochs} epochs of {n} pairs"
        )
    d = ps.source.d
    if init is None:
        init = LinearRankingModel.zeros(d)
    check_dimension(init, d)
    w = _train_rows(ps.source.features, ps.row_i, ps.row_j, weights, cfg, init.w, orders)
    return LinearRankingModel(w, float(init.b))


def train_pointwise(
    ds: Dataset,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
) -> LinearRankingModel:
    """Weighted logistic regression on items (the pointwise ordering method),
    fitted as the pair loss of rows [x, 1] against a zero row: (item, zero) at
    label 1 and (zero, item) at label 0, so the bias, the last weight, gets
    its gradient."""
    n = ds.n_items
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    if ((ds.labels != 0) & (ds.labels != 1)).any():
        raise ValidationError("pointwise training needs every item label in {0, 1}")
    weights = _check_weights(weights, n, "items")
    if init is None:
        init = LinearRankingModel.zeros(ds.d)
    check_dimension(init, ds.d)
    X = np.zeros((n + 1, ds.d + 1))
    X[:n, :-1], X[:n, -1] = ds.features, 1.0
    items, pos = np.arange(n), ds.labels == 1
    row_i, row_j = np.where(pos, items, n), np.where(pos, n, items)
    params = np.append(init.w, init.b)
    params = _train_rows(X, row_i, row_j, weights, cfg, params, epoch_orders(n, cfg))
    return LinearRankingModel(params[:-1], float(params[-1]))
