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
from .data import Dataset, PairSet, item_cell, make_pairs, pair_cell
from .errors import ValidationError
from .model import LinearRankingModel, clamp_prob, stable_sigmoid
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
        require_types(self, ints=("T",), floats=("eta_lambda",))
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
    """Mean predicted-order-probability-weighted constraint per group pair.

    Only the label-1 term contributes because constraints vanish at label
    0.  Entries whose constraint is undefined are masked and read 0.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if not len(ps):
        raise ValidationError("cannot evaluate expected bias on an empty pair set")
    arr = ps.arrays
    l_hat = clamp_prob(stable_sigmoid(arr.feat_diff @ model.w))
    # Constraint values depend only on a pair's cell: sum l_hat per cell first.
    table = pair_constraint_table(kind, stats)
    cell_sums = np.bincount(arr.cell, weights=l_hat, minlength=table.shape[-1])
    return DeltaMatrix(table @ cell_sums / len(ps), pair_constraint_mask(kind, stats))


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


def _pair_cell_weights(coeffs: Coefficients, stats: GroupStats, weight_form: str, l_true=None):
    """Weight of every ``pair_cell`` at its own label."""
    mask = pair_constraint_mask(coeffs.kind, stats)
    if weight_form == "general":
        s = _exponents(coeffs.values, mask, pair_constraint_table(coeffs.kind, stats, l_true))
    elif weight_form == "indicator":
        s = np.repeat(np.where(mask, coeffs.values, 0.0).ravel(), 2)
    else:
        raise ValidationError(f"unknown weight_form {weight_form!r}")
    return _own_label_weights(s)


def pair_weight(
    coeffs: Coefficients,
    stats: GroupStats,
    group_i: int,
    group_j: int,
    pair_label: int,
    l_true: float | None = None,
    weight_form: str = "general",
) -> float:
    """Closed-form weight of one pair at the given label.

    The exponent is the coefficient-weighted constraint sum at label 1
    (the "general" form) or the bare group-pair coefficient (the
    "indicator" form); label 0 always has exponent 0.  Weights for the two
    labels sum to 1.
    """
    weights = _pair_cell_weights(coeffs, stats, weight_form, l_true)
    return float(weights[pair_cell(group_i, group_j, pair_label, stats.K)])


def pair_weights(
    coeffs: Coefficients,
    stats: GroupStats,
    ps: PairSet,
    weight_form: str = "general",
) -> np.ndarray:
    """Weight of every pair at its observed label, aligned with ps order.

    A cell holding pairs whose weight under- or overflows to 0 (or NaN) is
    a ValidationError naming the cell.
    """
    cell = ps.arrays.cell
    weights = _pair_cell_weights(coeffs, stats, weight_form)
    bad = (np.bincount(cell, minlength=weights.size) > 0) & ~(weights > 0)
    if bad.any():
        k, l, label = np.argwhere(bad.reshape(stats.K, stats.K, 2))[0]
        w = float(weights[bad][0])
        raise ValidationError(f"pair weight of cell (k={k}, l={l}, label={label}) is {w!r}")
    return weights[cell]


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
    p = clamp_prob(stable_sigmoid(ds.flat_features @ model.w + model.b))
    table = point_constraint_table(kind, stats)
    cells = item_cell(ds.flat_groups, ds.flat_labels, ds.K)
    cell_sums = np.bincount(cells, weights=p, minlength=table.shape[-1])
    return table @ cell_sums / p.size, point_constraint_mask(kind, stats)


def point_weights(
    coeffs: np.ndarray, stats: GroupStats, ds: Dataset, kind: ConstraintKind
) -> np.ndarray:
    """Per-item weight at the observed label, normalized over both labels."""
    s = _exponents(coeffs, point_constraint_mask(kind, stats), point_constraint_table(kind, stats))
    return _own_label_weights(s)[item_cell(ds.flat_groups, ds.flat_labels, ds.K)]


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
    stats = compute_point_stats(train)
    coeffs = np.zeros(train.K)
    weights = point_weights(coeffs, stats, train, kind)
    model = train_pointwise(train, weights, cfg.inner)

    if cfg.delta_set == "validation":
        ds_delta = eval_set
        stats_delta = compute_point_stats(eval_set)
    else:
        ds_delta, stats_delta = train, stats

    for _ in range(cfg.T):
        values, mask = point_expected_bias(model, ds_delta, stats_delta, kind)
        coeffs = coeffs - cfg.eta_lambda * np.where(mask, values, 0.0)
        weights = point_weights(coeffs, stats, train, kind)
        init = model if cfg.warm_start else None
        model = train_pointwise(train, weights, cfg.inner, init=init)
    return model


@dataclass(eq=False)
class EnumeratedInstance:
    """A finite universe of feature pairs for exact objective checks.

    mass[x] is the sampling probability of pair x, true_pos[x] the true
    order probability, constraint_pos[x, k, l] the constraint value at
    label 1 (label 0 values default to zero), and predicted_pos[x] the
    model's order probability at some arbitrary fixed model.
    """

    mass: np.ndarray  # (n,)
    true_pos: np.ndarray  # (n,)
    constraint_pos: np.ndarray  # (n, K, K)
    predicted_pos: np.ndarray  # (n,)
    constraint_neg: np.ndarray | None = None


def _instance_losses(inst: EnumeratedInstance, loss: str) -> tuple[np.ndarray, np.ndarray]:
    p = clamp_prob(inst.predicted_pos)
    if loss == "cross_entropy":
        return -np.log1p(-p), -np.log(p)
    if loss == "squared":
        return p**2, (p - 1.0) ** 2
    raise ValidationError(f"unknown loss {loss!r}")


def bias_correction_identity(
    inst: EnumeratedInstance, coeffs: Coefficients, loss: str = "cross_entropy"
) -> tuple[float, float]:
    """Evaluate both sides of the reweighting equivalence by enumeration.

    The biased label distribution is constructed so that the true labels
    are its coefficient-tilted exponential family member; the left side is
    the weighted objective under biased labels, the right side the scaled
    objective under true labels on the correspondingly tilted feature
    distribution.  The two agree identically for any loss.
    """
    lam = coeffs.values
    s1 = np.einsum("nkl,kl->n", inst.constraint_pos, lam)
    if inst.constraint_neg is not None:
        s0 = np.einsum("nkl,kl->n", inst.constraint_neg, lam)
    else:
        s0 = np.zeros_like(s1)
    e1 = np.exp(s1)
    e0 = np.exp(s0)
    w1 = e1 / (e0 + e1)
    w0 = e0 / (e0 + e1)

    # Invert the tilt: biased label odds are the true odds divided by exp(s).
    b1 = inst.true_pos / e1
    b0 = (1.0 - inst.true_pos) / e0
    norm = b1 + b0
    b1 /= norm
    b0 /= norm

    phi = w1 * b1 + w0 * b0
    scale = float(np.sum(inst.mass * phi))
    tilted_mass = inst.mass * phi / scale

    loss0, loss1 = _instance_losses(inst, loss)
    lhs = float(np.sum(inst.mass * (b1 * w1 * loss1 + b0 * w0 * loss0)))
    rhs = scale * float(
        np.sum(tilted_mass * (inst.true_pos * loss1 + (1.0 - inst.true_pos) * loss0))
    )
    return lhs, rhs


def write_history_csv(history: list[IterationRecord], K: int, path) -> None:
    """One CSV row per outer iteration, violations and coefficients flattened row-major."""
    delta_cols = [f"delta_{k}{l}" for k in range(K) for l in range(K)]
    lambda_cols = [f"lambda_{k}{l}" for k in range(K) for l in range(K)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "auc_train", "auc_eval", "fairness_train", "fairness_eval"]
            + delta_cols
            + lambda_cols
        )
        for rec in history:
            writer.writerow(
                [rec.iteration]
                + [repr(v) for v in (rec.auc_train, rec.auc_eval, rec.fairness_train, rec.fairness_eval)]
                + [repr(float(v)) for v in rec.delta.ravel()]
                + [repr(float(v)) for v in rec.coeffs.ravel()]
            )
