"""Closed-form pair weights and the iterative coefficient-learning loop.

Each group pair (k, l) carries a coefficient; a pair's weight is the
normalized exponential of the coefficient-weighted constraint values over
the two possible predicted labels.  Every constraint vanishes at predicted
label 0 (at observed label 0 only the statistical ones do not), so the
weight reduces to a sigmoid of the constraint sum.  One outer loop serves
both methods: measure the model's violation, nudge the coefficients
against it, reweight the pairs or items, and retrain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation
from .constraints import (
    ConstraintKind,
    GroupStats,
    compute_point_stats,
    constraint_bias,
    constraint_exponents,
    pair_constraint_mask,
    pairs_and_stats,
)
from .data import Dataset, PairSet, item_cell, pair_chunks
from .errors import ValidationError, require_types
from .model import LinearRankingModel, check_scores, score_matrix, stable_sigmoid
from .training import (
    TrainConfig,
    shared_epoch_orders,
    train_pointwise,
    train_weighted,
)


@dataclass(eq=False)
class Coefficients:
    """Per-group-pair multipliers driving the closed-form pair weights."""

    values: np.ndarray  # (K, K); (K,) for a pointwise kind
    kind: ConstraintKind

    @classmethod
    def zeros(cls, K: int, kind: ConstraintKind) -> "Coefficients":
        return cls(np.zeros((K, K)), kind)


@dataclass(eq=False)
class DeltaMatrix:
    """Constraint violations per group pair; undefined entries read 0."""

    values: np.ndarray  # (K, K); (K,) for a pointwise kind
    defined: np.ndarray  # bool, the shape of values


@dataclass(frozen=True)
class FairTrainConfig:
    eta_lambda: float = 1.0
    T: int = 20
    inner: TrainConfig = field(default_factory=TrainConfig)
    weight_form: str = "general"  # or "indicator"
    delta_set: str = "train"  # or "validation"
    warm_start: bool = False

    def __post_init__(self):
        require_types(vars(self), ints=("T",), floats=("eta_lambda",))
        if not isinstance(self.warm_start, bool):
            raise ValidationError(f"warm_start must be true or false, got {self.warm_start!r}")
        if self.eta_lambda <= 0:
            raise ValidationError("eta_lambda must be > 0")
        if self.T < 0:
            raise ValidationError("T must be >= 0")
        if self.weight_form not in ("general", "indicator"):
            raise ValidationError(f"unknown weight_form {self.weight_form!r}")
        if self.delta_set not in ("train", "validation"):
            raise ValidationError(f"unknown delta_set {self.delta_set!r}")


@dataclass(eq=False)
class IterationRecord:
    """One outer-loop iteration; its arrays are the loop's own, not copies."""

    iteration: int
    auc_train: float
    auc_eval: float
    fairness_train: float
    fairness_eval: float
    delta: np.ndarray  # (K, K) violation that drove this iteration's update
    coeffs: np.ndarray  # (K, K) after the update; the last is the returned coefficients' array


def expected_bias(
    scores: np.ndarray, ps: PairSet, stats: GroupStats, kind: ConstraintKind
) -> DeltaMatrix:
    """Mean predicted-order-probability-weighted constraint per group pair,
    over the ordered pairs, of per-item scores (one a row of ps.source).

    An ordered pair's predicted order probability is the sigmoid of its two
    items' score difference, so no pair features are built.  The pairs are
    read a chunk at a time (see data.pair_chunks) into running per-cell
    sums.  Only the predicted-label-1 term counts, as constraints vanish at
    predicted label 0.  Undefined entries are masked and read 0.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if not len(ps):
        raise ValidationError("cannot evaluate expected bias on an empty pair set")
    s = check_scores(scores, ps.source.n_items)
    # Constraint values depend only on an ordered pair's (k, l, label) cell.  A
    # pair is (i, j) at label 1, predicted sigmoid(z), and (j, i) at label 0 of
    # the transposed group pair, predicted sigmoid(-z).  add.at sums each
    # cell in pair order across chunks, the order of one whole bincount.
    cell, K = ps.arrays, stats.K
    pos, neg = np.zeros(K * K), np.zeros(K * K)
    for part in pair_chunks(len(ps)):
        z = s.take(ps.row_i[part])
        z -= s.take(ps.row_j[part])
        np.add.at(pos, cell[part], stable_sigmoid(z))
        np.negative(z, out=z)
        np.add.at(neg, cell[part], stable_sigmoid(z))
    cell_sums = np.stack((neg.reshape(K, K).T, pos.reshape(K, K)), axis=-1)
    return DeltaMatrix(*constraint_bias(kind, stats, cell_sums, 2 * len(ps)))


def _own_label_weights(s: np.ndarray) -> np.ndarray:
    """Weight of each cell at its own label, cells alternating labels 0, 1: as the
    labels weigh exp(0) and exp(s), sigmoid(-s) at label 0 and sigmoid(s) at 1."""
    return stable_sigmoid(np.where(np.arange(s.size) % 2 == 1, s, -s))


def _pair_cell_weights(coeffs: Coefficients, stats: GroupStats, weight_form: str):
    """Weight of every ordered cell, (k, l, label) raveled over (K, K, 2), at its own label."""
    if weight_form == "general":
        s = constraint_exponents(coeffs.kind, stats, coeffs.values).ravel()
    elif weight_form == "indicator":
        held = np.where(pair_constraint_mask(coeffs.kind, stats), coeffs.values, 0.0)
        s = np.repeat(held.ravel(), 2)
    else:
        raise ValidationError(f"unknown weight_form {weight_form!r}")
    return _own_label_weights(s)


def _check_cell_weights(weights: np.ndarray, held: np.ndarray, what: str, coords: dict):
    """A cell holding rows (``held`` > 0) whose weight is not > 0 is a
    ValidationError naming the cell by ``coords``, its axes' names and sizes."""
    bad = (held > 0) & ~(weights > 0)
    if bad.any():
        at = np.unravel_index(np.flatnonzero(bad)[0], tuple(coords.values()))
        cell = ", ".join(f"{name}={int(v)}" for name, v in zip(coords, at))
        raise ValidationError(f"{what} weight of cell ({cell}) is {float(weights[bad][0])!r}")


def pair_weights(
    coeffs: Coefficients,
    stats: GroupStats,
    ps: PairSet,
    weight_form: str = "general",
) -> np.ndarray:
    """Weight of every pair, aligned with ps order.

    A pair weighs the mean of its two ordered pairs' weights, (i, j) at
    label 1 and (j, i) at label 0, whose loss terms are the same, so its
    mean weighted loss is that of the ordered pairs.  An ordered cell
    holding pairs whose weight under- or overflows to 0 (or NaN) is a
    ValidationError naming the cell.
    """
    K, cell = stats.K, ps.arrays
    weights = _pair_cell_weights(coeffs, stats, weight_form).reshape(K, K, 2)
    pos = ps.cell_counts()
    held = np.stack((pos.T, pos), axis=-1)
    _check_cell_weights(weights, held, "pair", {"k": K, "l": K, "label": 2})
    table = ((weights[..., 1] + weights[..., 0].T) / 2).ravel()
    out = np.empty(len(ps))
    for part in pair_chunks(len(ps)):
        table.take(cell[part], out=out[part])
    return out


def update_coefficients(coeffs: Coefficients, delta: DeltaMatrix, eta: float) -> Coefficients:
    """Step the coefficients against the measured violation; masked entries stay put."""
    step = np.where(delta.defined, delta.values, 0.0)
    return Coefficients(coeffs.values - eta * step, coeffs.kind)


def _reweight_loop(cfg: FairTrainConfig, coeffs: Coefficients, weigh, fit, measure):
    """Fit on ``weigh(coeffs)``, then T times step the coefficients against the
    last violation, reweigh, refit and measure.  ``measure(model, t)`` returns
    what outer iteration t records and the violation driving t + 1 (t = 0 is
    the first fit, measured only when T > 0).  Returns the last model and
    coefficients and, per iteration, its record, driving delta and coefficients."""
    model, steps = fit(weigh(coeffs), None), []
    delta = measure(model, 0)[1] if cfg.T else None
    for t in range(1, cfg.T + 1):
        coeffs = update_coefficients(coeffs, delta, cfg.eta_lambda)
        try:
            weights = weigh(coeffs)
        except ValidationError as exc:
            msg = f"outer iteration {t} with eta_lambda={cfg.eta_lambda!r}: {exc}"
            raise ValidationError(msg) from exc
        model = fit(weights, model if cfg.warm_start else None)
        recorded, next_delta = measure(model, t)
        steps.append((recorded, delta, coeffs))
        delta = next_delta
    return model, coeffs, steps


def fair_train(
    train: Dataset,
    eval_set: Dataset,
    kind: ConstraintKind,
    cfg: FairTrainConfig,
) -> tuple[LinearRankingModel, Coefficients, list[IterationRecord]]:
    """Iteratively reweight pairs and retrain until the loop budget is spent.

    Starts from zero coefficients (uniform weights) and an unconstrained
    model, then repeats T times: measure the violation on the configured
    delta set, step the coefficients against it, recompute all pair
    weights, and retrain from scratch (or warm-start when configured).
    History carries one record per iteration with metrics on both sets.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if train.K < 2:
        raise ValidationError("fair training requires at least two groups")
    if eval_set.K != train.K:
        raise ValidationError(f"eval_set has K={eval_set.K} groups but train has K={train.K}")

    ps_train, stats_train = pairs_and_stats(train, "training set")
    # All T + 1 trainings share one pair set and one cfg.inner, so one draw
    # of their epoch orders serves every one.  The evaluation pairs are built
    # only if T > 0, and before the first fit.
    orders, splits = None, [(ps_train, stats_train)]
    if cfg.T:
        orders = shared_epoch_orders(len(ps_train), cfg.inner)
        splits.append(pairs_and_stats(eval_set, "evaluation set"))
    at_delta = 1 if cfg.delta_set == "validation" else 0

    def measure(model, t):
        # The first fit's violation is measured on the delta set alone.
        if not t:
            ps, stats = splits[at_delta]
            return None, expected_bias(score_matrix(model, ps.source.features), ps, stats, kind)
        reports = [
            evaluation.evaluate(score_matrix(model, ps.source.features), ps, stats, kind)
            for ps, stats in splits
        ]
        return [r.auc for r in reports] + [r.fairness for r in reports], reports[at_delta].delta

    model, coeffs, steps = _reweight_loop(
        cfg,
        Coefficients.zeros(train.K, kind),
        lambda c: pair_weights(c, stats_train, ps_train, cfg.weight_form),
        lambda weights, init: train_weighted(ps_train, weights, cfg.inner, init, orders),
        measure,
    )
    history = [
        IterationRecord(t, *metrics, delta.values, coeffs_t.values)
        for t, (metrics, delta, coeffs_t) in enumerate(steps, 1)
    ]
    return model, coeffs, history


def point_expected_bias(
    scores: np.ndarray, ds: Dataset, stats: GroupStats, kind: ConstraintKind
) -> DeltaMatrix:
    """Per-group item-level violation of per-item scores (one a row of ds)."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    p = stable_sigmoid(check_scores(scores, ds.n_items))
    cells = item_cell(ds.groups, ds.labels, ds.K)
    cell_sums = np.bincount(cells, weights=p, minlength=2 * ds.K).reshape(ds.K, 2)
    return DeltaMatrix(*constraint_bias(kind, stats, cell_sums, p.size))


def point_weights(
    coeffs: np.ndarray, stats: GroupStats, ds: Dataset, kind: ConstraintKind
) -> np.ndarray:
    """Per-item weight at the observed label, normalized over both labels;
    a cell holding items whose weight is not > 0 is a ValidationError."""
    s = constraint_exponents(kind, stats, coeffs).ravel()
    weights, cells = _own_label_weights(s), item_cell(ds.groups, ds.labels, ds.K)
    held = np.bincount(cells, minlength=weights.size)
    _check_cell_weights(weights, held, "item", {"k": ds.K, "label": 2})
    return weights[cells]


def pointwise_reweight_train(
    train: Dataset,
    eval_set: Dataset,
    kind: ConstraintKind,
    cfg: FairTrainConfig,
) -> LinearRankingModel:
    """Item-level analog of fair_train: weighted logistic regression.

    Coefficients live per group; weights multiply each item's label loss.
    The returned model is scored exactly like the pairwise one.
    """
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    if eval_set.K != train.K:
        raise ValidationError(f"eval_set has K={eval_set.K} groups but train has K={train.K}")
    if any(((ds.labels != 0) & (ds.labels != 1)).any() for ds in (train, eval_set)):
        raise ValidationError("pointwise training needs every item label in {0, 1}")
    stats = compute_point_stats(train)
    ds_delta = eval_set if cfg.delta_set == "validation" else train
    on_delta = ds_delta, compute_point_stats(ds_delta), kind
    # As in fair_train, the T + 1 trainings share one draw of their orders.
    orders = shared_epoch_orders(train.n_items, cfg.inner) if cfg.T else None
    model, _, _ = _reweight_loop(
        cfg,
        Coefficients(np.zeros(train.K), kind),
        lambda c: point_weights(c.values, stats, train, kind),
        lambda weights, init: train_pointwise(train, weights, cfg.inner, init, orders),
        lambda m, t: (None, point_expected_bias(score_matrix(m, ds_delta.features), *on_delta)),
    )
    return model


def write_history_csv(history: list[IterationRecord], K: int, path) -> None:
    """One CSV row per outer iteration, violations and coefficients flattened row-major."""
    w = len(str(K - 1))  # padded, or (1, 11) and (11, 1) share a name from K=12
    cells = [f"{k:0{w}}{l:0{w}}" for k in range(K) for l in range(K)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "auc_train", "auc_eval", "fairness_train", "fairness_eval"]
            + [f"delta_{c}" for c in cells]
            + [f"lambda_{c}" for c in cells]
        )
        for rec in history:
            writer.writerow(
                [rec.iteration]
                + [repr(v) for v in (rec.auc_train, rec.auc_eval, rec.fairness_train, rec.fairness_eval)]
                + [repr(float(v)) for v in rec.delta.ravel()]
                + [repr(float(v)) for v in rec.coeffs.ravel()]
            )
