"""Weighted pairwise (and pointwise) training with a from-scratch Adam.

The pairwise objective is the mean over pairs of
``weight * -log(predicted order probability)``: every pair of a PairSet
has its positive item first, so its pair label is 1, and its weight
stands for its mirror too (see reweight.pair_weights).  The pointwise
variant applies the cross-entropy to item labels and steps [w..., b].
The bias has zero gradient in the pairwise case because it cancels in
every score difference, so the pairwise trainer steps w alone and
returns the initial bias.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import GATHER_BYTES, Dataset, PairSet
from .errors import ValidationError
from .model import PROB_EPS, LinearRankingModel, check_dimension, clamp_prob, stable_sigmoid


def require_types(values: Mapping[str, object], ints=(), floats=()) -> None:
    """Reject config values that are not integers (``ints``) or finite reals (``floats``).

    ``values`` maps each name to its value; the error message names the
    offending entry.  Bools are rejected for both; integers are accepted as
    reals.
    """
    for name in ints:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    for name in floats:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


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


def weighted_loss(model: LinearRankingModel, ps: PairSet, weights: np.ndarray) -> float:
    """Mean weighted pair loss over a whole pair set."""
    check_dimension(model, ps.source.d)
    diff = ps.source.features.take(ps.row_i, axis=0)
    diff -= ps.source.features.take(ps.row_j, axis=0)
    p = clamp_prob(stable_sigmoid(diff @ model.w))
    return float((weights * -np.log(p)).mean())


def batch_gradient(w: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient in w of the mean weighted pair loss over one minibatch.

    ``x`` holds the batch's feature differences and ``weights`` its pair
    weights; every pair label is 1.  The bias has no entry: it cancels in
    every score difference, so its gradient is zero.
    """
    resid = stable_sigmoid(x @ w)
    # clamp_prob in place; np.clip's Python wrapper costs as much as the clamp.
    np.maximum(resid, PROB_EPS, out=resid)
    np.minimum(resid, 1.0 - PROB_EPS, out=resid)
    resid -= 1.0
    resid *= weights
    return resid @ x / weights.size


def _check_weights(weights, n: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValidationError(f"weight table length {weights.shape} != number of pairs {n}")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValidationError("weights must be finite and positive")
    return weights


def train_weighted(
    ps: PairSet,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
) -> LinearRankingModel:
    """Minimize the weighted pairwise loss with minibatch Adam.

    Pairs are reshuffled every epoch from a generator seeded by cfg.seed,
    so the result is deterministic for fixed inputs; ``cfg.batch_size``
    counts pairs of ``ps``.  Each minibatch steps on its view of a chunk of
    gathered rows x_i - x_j (see GATHER_BYTES).  The bias is returned as
    given in ``init``.  epochs=0 returns the initial model unchanged.
    """
    if not len(ps):
        raise ValidationError("cannot train on an empty pair set")
    n = len(ps)
    weights = _check_weights(weights, n)
    d = ps.source.d
    if init is None:
        init = LinearRankingModel.zeros(d)
    check_dimension(init, d)

    X, row_i, row_j = ps.source.features, ps.row_i, ps.row_j
    bs = cfg.batch_size
    chunk = bs * max(1, GATHER_BYTES // (8 * d * bs))
    # A zero gradient leaves Adam's step 0, so stepping the bias would
    # return it bit for bit; only w is stepped.
    w = init.w.copy()
    state = AdamState.zeros(d)
    rng = np.random.default_rng(cfg.seed)

    for _ in range(cfg.epochs):
        # An intp order: numpy shuffles 8-byte items fastest, and the
        # gathers below need no index conversion.
        order = rng.permutation(n)
        for lo in range(0, n, chunk):
            idx = order[lo : lo + chunk]
            xs = X.take(row_i.take(idx), axis=0)
            xs -= X.take(row_j.take(idx), axis=0)
            ws = weights.take(idx)
            for start in range(0, idx.size, bs):
                batch = slice(start, start + bs)
                grad = batch_gradient(w, xs[batch], ws[batch])
                state, w = adam_update(state, w, grad, cfg)

    return LinearRankingModel(w, float(init.b))


def train_pointwise(
    ds: Dataset,
    weights,
    cfg: TrainConfig,
    init: LinearRankingModel | None = None,
) -> LinearRankingModel:
    """Weighted logistic regression on items (the pointwise ordering method).

    Unlike the pairwise trainer, the bias receives a nonzero gradient here.
    """
    X, y = ds.features, ds.labels
    n = y.size
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    weights = _check_weights(weights, n)
    if init is None:
        init = LinearRankingModel.zeros(ds.d)
    check_dimension(init, ds.d)

    params = np.concatenate([init.w, [init.b]])
    state = AdamState.zeros(params.size)
    rng = np.random.default_rng(cfg.seed)

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = np.take(X, idx, axis=0)
            resid = clamp_prob(stable_sigmoid(x @ params[:-1] + params[-1]))
            resid -= y.take(idx)
            resid *= weights.take(idx)
            grad = np.concatenate([resid @ x / idx.size, [resid.mean()]])
            state, params = adam_update(state, params, grad, cfg)

    return LinearRankingModel(params[:-1].copy(), float(params[-1]))
