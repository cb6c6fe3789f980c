"""Closed-form pair weights and the iterative coefficient-learning loop.

Each group pair (k, l) carries a coefficient; a pair's weight is the
normalized exponential of the coefficient-weighted constraint values over
the two possible pair labels.  Because every constraint vanishes at label
0, the label-1 weight reduces to a sigmoid of the constraint sum.  The
outer loop alternates between measuring the model's constraint violation,
nudging the coefficients against it, reweighting the pairs, and retraining
from scratch.
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
    compute_group_stats,
    compute_point_stats,
    pair_constraint_mask,
    pair_constraint_table,
    point_constraint_mask,
    point_constraint_table,
)
from .data import Dataset, PairSet, item_cell, make_pairs
from .errors import ValidationError
from .model import LinearRankingModel, check_dimension, clamp_prob, stable_sigmoid
from .training import TrainConfig, require_types, train_pointwise, train_weighted


@dataclass(eq=False)
class Coefficients:
    """Per-group-pair multipliers driving the closed-form pair weights."""

    values: np.ndarray  # (K, K)
    kind: ConstraintKind

    @classmethod
    def zeros(cls, K: int, kind: ConstraintKind) -> "Coefficients":
        return cls(np.zeros((K, K)), kind)


@dataclass(eq=False)
class DeltaMatrix:
    """Constraint violations per group pair; undefined entries read 0."""

    values: np.ndarray  # (K, K)
    defined: np.ndarray  # (K, K) bool


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
    """Snapshot of one outer-loop iteration."""

    iteration: int
    auc_train: float
    auc_eval: float
    fairness_train: float
    fairness_eval: float
    delta: np.ndarray  # (K, K) violation that drove this iteration's update
    coeffs: np.ndarray  # (K, K) coefficients after the update


def expected_bias(
    model: LinearRankingModel, ps: PairSet, stats: GroupStats, kind: ConstraintKind
) -> DeltaMatrix:
    """Mean predicted-order-probability-weighted constraint per group pair,
    over the ordered pairs.

    Scores every item once; an ordered pair's predicted order probability
    is the sigmoid of its two items' score difference, so no pair features
    are built.  Only the label-1 term contributes because constraints vanish
    at label 0.  Entries whose constraint is undefined are masked and read 0.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if not len(ps):
        raise ValidationError("cannot evaluate expected bias on an empty pair set")
    check_dimension(model, ps.source.d)
    s = ps.source.features @ model.w
    z = s[ps.row_i]
    z -= s[ps.row_j]
    # Constraint values depend only on an ordered pair's (k, l, label) cell.  A
    # pair is (i, j) at label 1, predicted sigmoid(z), and (j, i) at label 0 of
    # the transposed group pair, predicted sigmoid(-z).
    cell, K = ps.arrays.cell, stats.K
    pos = np.bincount(cell, weights=clamp_prob(stable_sigmoid(z)), minlength=K * K)
    np.negative(z, out=z)
    neg = np.bincount(cell, weights=clamp_prob(stable_sigmoid(z)), minlength=K * K)
    cell_sums = np.stack((neg.reshape(K, K).T, pos.reshape(K, K)), axis=-1)
    table = pair_constraint_table(kind, stats)
    return DeltaMatrix(table @ cell_sums.ravel() / (2 * len(ps)), pair_constraint_mask(kind, stats))


def _exponents(coeffs: np.ndarray, mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-cell sum of coeffs[e] * table[e] over defined entries e with nonzero coefficients."""
    s = np.zeros(table.shape[-1])
    for e in zip(*np.nonzero(mask & (coeffs != 0.0))):
        s += coeffs[e] * table[e]
    return s


def _own_label_weights(s: np.ndarray) -> np.ndarray:
    """Overflow-safe weight of each cell at its own label; cells alternate labels 0, 1.

    The two labels' weights are proportional to exp(0) and exp(s).
    """
    m = np.maximum(s, 0.0)
    e0, e1 = np.exp(-m), np.exp(s - m)
    return np.where(np.arange(s.size) % 2 == 1, e1, e0) / (e0 + e1)


def _pair_cell_weights(coeffs: Coefficients, stats: GroupStats, weight_form: str):
    """Weight of every ordered cell, (k, l, label) raveled over (K, K, 2), at its own label."""
    mask = pair_constraint_mask(coeffs.kind, stats)
    if weight_form == "general":
        s = _exponents(coeffs.values, mask, pair_constraint_table(coeffs.kind, stats))
    elif weight_form == "indicator":
        s = np.repeat(np.where(mask, coeffs.values, 0.0).ravel(), 2)
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
    K, cell = stats.K, ps.arrays.cell
    weights = _pair_cell_weights(coeffs, stats, weight_form).reshape(K, K, 2)
    pos = np.bincount(cell, minlength=K * K).reshape(K, K)
    held = np.stack((pos.T, pos), axis=-1)
    _check_cell_weights(weights, held, "pair", {"k": K, "l": K, "label": 2})
    return ((weights[..., 1] + weights[..., 0].T) / 2).ravel()[cell]


def update_coefficients(coeffs: Coefficients, delta: DeltaMatrix, eta: float) -> Coefficients:
    """Step the coefficients against the measured violation; masked entries stay put."""
    step = np.where(delta.defined, delta.values, 0.0)
    return Coefficients(coeffs.values - eta * step, coeffs.kind)


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

    ps_train = make_pairs(train)
    if not len(ps_train):
        raise ValidationError("training set has no discordant pairs")
    stats_train = compute_group_stats(ps_train)

    coeffs = Coefficients.zeros(train.K, kind)
    weights = pair_weights(coeffs, stats_train, ps_train, cfg.weight_form)
    model = train_weighted(ps_train, weights, cfg.inner)
    history: list[IterationRecord] = []
    if cfg.T == 0:
        return model, coeffs, history

    ps_eval = make_pairs(eval_set)
    if not len(ps_eval):
        raise ValidationError("evaluation set has no discordant pairs")
    stats_eval = compute_group_stats(ps_eval)

    # Each iteration's delta is the previous model's bias on the delta set,
    # which the previous iteration already measured for its history record.
    if cfg.delta_set == "validation":
        delta = expected_bias(model, ps_eval, stats_eval, kind)
    else:
        delta = expected_bias(model, ps_train, stats_train, kind)
    for t in range(1, cfg.T + 1):
        coeffs = update_coefficients(coeffs, delta, cfg.eta_lambda)
        try:
            weights = pair_weights(coeffs, stats_train, ps_train, cfg.weight_form)
        except ValidationError as exc:
            msg = f"outer iteration {t} with eta_lambda={cfg.eta_lambda!r}: {exc}"
            raise ValidationError(msg) from exc
        init = model if cfg.warm_start else None
        model = train_weighted(ps_train, weights, cfg.inner, init=init)
        bias_train = expected_bias(model, ps_train, stats_train, kind)
        bias_eval = expected_bias(model, ps_eval, stats_eval, kind)
        history.append(
            IterationRecord(
                iteration=t,
                auc_train=evaluation.auc(model, train)[0],
                auc_eval=evaluation.auc(model, eval_set)[0],
                fairness_train=evaluation.fairness_score(bias_train),
                fairness_eval=evaluation.fairness_score(bias_eval),
                delta=delta.values.copy(),
                coeffs=coeffs.values.copy(),
            )
        )
        delta = bias_eval if cfg.delta_set == "validation" else bias_train
    return model, coeffs, history


def point_expected_bias(
    model: LinearRankingModel, ds: Dataset, stats: GroupStats, kind: ConstraintKind
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group item-level violation and its defined mask."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    p = clamp_prob(stable_sigmoid(ds.features @ model.w + model.b))
    table = point_constraint_table(kind, stats)
    cells = item_cell(ds.groups, ds.labels, ds.K)
    cell_sums = np.bincount(cells, weights=p, minlength=table.shape[-1])
    return table @ cell_sums / p.size, point_constraint_mask(kind, stats)


def point_weights(
    coeffs: np.ndarray, stats: GroupStats, ds: Dataset, kind: ConstraintKind
) -> np.ndarray:
    """Per-item weight at the observed label, normalized over both labels;
    a cell holding items whose weight is not > 0 is a ValidationError."""
    s = _exponents(coeffs, point_constraint_mask(kind, stats), point_constraint_table(kind, stats))
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
    stats = compute_point_stats(train)
    coeffs = np.zeros(train.K)
    weights = point_weights(coeffs, stats, train, kind)
    model = train_pointwise(train, weights, cfg.inner)

    if cfg.delta_set == "validation":
        ds_delta = eval_set
        stats_delta = compute_point_stats(eval_set)
    else:
        ds_delta, stats_delta = train, stats

    for t in range(1, cfg.T + 1):
        values, mask = point_expected_bias(model, ds_delta, stats_delta, kind)
        coeffs = coeffs - cfg.eta_lambda * np.where(mask, values, 0.0)
        try:
            weights = point_weights(coeffs, stats, train, kind)
        except ValidationError as exc:
            msg = f"outer iteration {t} with eta_lambda={cfg.eta_lambda!r}: {exc}"
            raise ValidationError(msg) from exc
        init = model if cfg.warm_start else None
        model = train_pointwise(train, weights, cfg.inner, init=init)
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
