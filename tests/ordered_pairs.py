"""The ordered pair representation, kept as a test oracle.

make_pairs emits each discordant pair once, positive item first.  It used
to emit both orientations: (i, j) at pair label 1 and its mirror (j, i) at
label 0.  ``ordered_pairs`` is that enumeration, and the functions below
compute group statistics, violations, weights and the loss on it as the
library did before the pairs were deduplicated.
"""

from dataclasses import dataclass

import numpy as np

from fairpair.constraints import GroupStats, compute_point_stats, pair_constraint_table
from fairpair.data import Dataset, pair_cell
from fairpair.model import clamp_prob, stable_sigmoid
from fairpair.reweight import _pair_cell_weights


@dataclass(eq=False)
class OrderedPairs:
    """Both orientations of every discordant pair, in query, then i, then j order."""

    row_i: np.ndarray  # int32 dataset rows of item i
    row_j: np.ndarray  # int32 dataset rows of item j
    label: np.ndarray  # int64, 1 when item i is the positive one
    cell: np.ndarray  # pair_cell(group_i, group_j, label)
    pair: np.ndarray  # position in the PairSet of the pair this one orients
    source: Dataset

    def __len__(self) -> int:
        return self.row_i.size


def ordered_pairs(ps) -> OrderedPairs:
    """The two-orientation make_pairs of ps's dataset, each ordered pair
    mapped to its pair in ps; ps must hold each discordant pair once."""
    ds = ps.source
    parts = [(np.zeros(0, dtype=np.int64),) * 2]
    for start, q in zip(ds.offsets[:-1].tolist(), ds.queries):
        # nonzero walks row-major (i, then j); the diagonal never differs.
        i, j = np.nonzero(q.labels[:, None] != q.labels[None, :])
        parts.append((i + start, j + start))
    row_i, row_j = (np.concatenate(col).astype(np.int32) for col in zip(*parts))
    label = (ds.labels[row_i] > ds.labels[row_j]).astype(np.int64)
    cell = pair_cell(ds.groups[row_i], ds.groups[row_j], label, ds.K)
    # An ordered pair orients the pair of ps whose positive item comes first.
    pos, neg = np.where(label == 1, row_i, row_j), np.where(label == 1, row_j, row_i)
    key = pos.astype(np.int64) * ds.n_items + neg
    ps_key = ps.row_i.astype(np.int64) * ds.n_items + ps.row_j
    pair = np.searchsorted(ps_key, key)
    assert len(ps) * 2 == key.size and np.array_equal(ps_key[pair], key)
    return OrderedPairs(row_i, row_j, label, cell, pair, ds)


def fold(values, op: OrderedPairs) -> np.ndarray:
    """Mean of per-ordered-pair values over each pair's two orientations, in PairSet order."""
    return np.bincount(op.pair, weights=values, minlength=len(op) // 2) / 2


def ordered_group_stats(op: OrderedPairs) -> GroupStats:
    """compute_group_stats counting the ordered pairs' cells."""
    K, n = op.source.K, len(op)
    counts = np.bincount(op.cell, minlength=2 * K * K).reshape(K, K, 2)
    pos = counts[..., 1]
    items = compute_point_stats(op.source)
    return GroupStats(
        counts.sum(axis=2) / n, pos / n, float(pos.sum() / n), items.item_frac, items.pos_item_frac
    )


def ordered_feature_diff(op: OrderedPairs) -> np.ndarray:
    X = op.source.features
    return X[op.row_i] - X[op.row_j]


def ordered_expected_bias(model, op: OrderedPairs, stats, kind) -> np.ndarray:
    """expected_bias values, one order probability per ordered pair."""
    s = op.source.features @ model.w
    l_hat = clamp_prob(stable_sigmoid(s[op.row_i] - s[op.row_j]))
    table = pair_constraint_table(kind, stats)
    return table @ np.bincount(op.cell, weights=l_hat, minlength=table.shape[-1]) / len(op)


def ordered_weights(coeffs, stats, op: OrderedPairs, weight_form="general") -> np.ndarray:
    """Each ordered pair's weight at its own label: its cell's weight."""
    return _pair_cell_weights(coeffs, stats, weight_form)[op.cell]


def ordered_weighted_loss(model, op: OrderedPairs, weights) -> float:
    """Mean weighted cross-entropy of the ordered pairs at their labels."""
    p = clamp_prob(stable_sigmoid(ordered_feature_diff(op) @ model.w))
    lab = op.label
    return float((weights * -(lab * np.log(p) + (1 - lab) * np.log1p(-p))).mean())
