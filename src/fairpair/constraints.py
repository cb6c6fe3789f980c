"""Group statistics and the pairwise / pointwise constraint functions.

A constraint assigns each labeled pair (or item) a signed value whose
average under the model's predicted label distribution measures group
bias; a fair model has zero average.  Every constraint is identically
zero at label 0, so only the label-1 branch ever contributes.

True order probabilities inside the inter/intra/marginal formulas are
unknown in practice and are proxied by the observed pair labels; tests
built on synthetic data may substitute the generator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Item, PairSet, item_cell, pair_cell
from .errors import ConstraintUndefined, ValidationError


class ConstraintKind(Enum):
    """Selector over the supported constraint families."""

    PAIR_STATISTICAL = "statistical"
    PAIR_INTER_GROUP = "inter"
    PAIR_INTRA_GROUP = "intra"
    PAIR_MARGINAL = "marginal"
    POINT_STATISTICAL = "point_statistical"
    POINT_EQUAL_OPPORTUNITY = "point_equal_opportunity"

    @property
    def is_pairwise(self) -> bool:
        return self in (
            ConstraintKind.PAIR_STATISTICAL,
            ConstraintKind.PAIR_INTER_GROUP,
            ConstraintKind.PAIR_INTRA_GROUP,
            ConstraintKind.PAIR_MARGINAL,
        )

    @property
    def is_pointwise(self) -> bool:
        return not self.is_pairwise


@dataclass(eq=False)
class GroupStats:
    """Empirical group statistics of a pair set and its source items.

    pair_frac[k, l]      fraction of pairs whose items fall in (G_k, G_l)
    pos_pair_frac[k, l]  fraction of pairs in (G_k, G_l) with pair label 1
    pos_frac             fraction of all pairs with pair label 1
    item_frac[k]         fraction of source items in G_k
    pos_item_frac[k]     fraction of source items in G_k with label 1
    """

    pair_frac: np.ndarray
    pos_pair_frac: np.ndarray
    pos_frac: float
    item_frac: np.ndarray
    pos_item_frac: np.ndarray

    @property
    def K(self) -> int:
        return self.pair_frac.shape[0]

    @property
    def pos_item_total(self) -> float:
        return float(self.pos_item_frac.sum())


def _item_stats(ds) -> tuple[np.ndarray, np.ndarray]:
    groups = ds.flat_groups
    labels = ds.flat_labels
    n = groups.size
    item_frac = np.bincount(groups, minlength=ds.K) / n
    pos_item_frac = np.bincount(groups, weights=labels.astype(float), minlength=ds.K) / n
    return item_frac, pos_item_frac


def compute_group_stats(ps: PairSet) -> GroupStats:
    """Count group-pair membership and positive-label proportions over all pairs."""
    if not len(ps):
        raise ValidationError("cannot compute group statistics of an empty pair set")
    K, n = ps.source.K, len(ps)
    counts = np.bincount(ps.arrays.cell, minlength=2 * K * K).reshape(K, K, 2)
    pos_frac = float(ps.arrays.label.mean())
    return GroupStats(counts.sum(axis=2) / n, counts[..., 1] / n, pos_frac, *_item_stats(ps.source))


def compute_point_stats(ds) -> GroupStats:
    """Item-only statistics for pointwise constraints; pair fields are zeroed."""
    if ds.n_items == 0:
        raise ValidationError("cannot compute item statistics of an empty dataset")
    item_frac, pos_item_frac = _item_stats(ds)
    K = ds.K
    return GroupStats(np.zeros((K, K)), np.zeros((K, K)), 0.0, item_frac, pos_item_frac)


def pair_constraint_mask(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K, K) boolean mask of group pairs where the constraint has a value.

    An entry is False when the family does not define it (e.g. diagonal
    entries for cross-group families) or when a denominator is zero.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    K = stats.K
    off_diag = ~np.eye(K, dtype=bool)
    if kind is ConstraintKind.PAIR_STATISTICAL:
        return off_diag & (stats.pair_frac > 0)
    if kind is ConstraintKind.PAIR_INTER_GROUP:
        return off_diag & (stats.pos_pair_frac > 0) & (stats.pos_frac > 0)
    if kind is ConstraintKind.PAIR_INTRA_GROUP:
        return np.eye(K, dtype=bool) & (stats.pos_pair_frac > 0) & (stats.pos_frac > 0)
    # Marginal: one constraint per first-group k, replicated across l.
    row_ok = (stats.pos_pair_frac.sum(axis=1) > 0) & (stats.pos_frac > 0)
    return np.repeat(row_ok[:, None], K, axis=1)


def point_constraint_mask(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K,) boolean mask of groups where the pointwise constraint has a value."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    if kind is ConstraintKind.POINT_STATISTICAL:
        return stats.item_frac > 0
    return (stats.pos_item_frac > 0) & (stats.pos_item_total > 0)


def _pair_constraint_at_one(
    kind: ConstraintKind,
    stats: GroupStats,
    k: int,
    l: int,
    group_i,
    group_j,
    l_true,
):
    """Vectorized constraint value at pair label 1; inputs may be arrays."""
    group_i = np.asarray(group_i)
    group_j = np.asarray(group_j)
    l_true = np.asarray(l_true, dtype=np.float64)
    if kind is ConstraintKind.PAIR_STATISTICAL:
        member = (group_i == k) & (group_j == l)
        return member / stats.pair_frac[k, l] - 1.0
    if kind is ConstraintKind.PAIR_INTER_GROUP or kind is ConstraintKind.PAIR_INTRA_GROUP:
        member = (group_i == k) & (group_j == l)
        return l_true * (member / stats.pos_pair_frac[k, l] - 1.0 / stats.pos_frac)
    # Marginal: membership of the first item only, against the row total.
    member = group_i == k
    return l_true * (member / stats.pos_pair_frac[k].sum() - 1.0 / stats.pos_frac)


def pair_constraint_table(kind: ConstraintKind, stats: GroupStats, l_true=None) -> np.ndarray:
    """(K, K, 2K²) constraint values at pair label 1 of every pair cell.

    Entry [k, l, c] is the (k, l) constraint of the pairs in ``pair_cell``
    c.  ``l_true`` defaults to each cell's label, the observed-label
    proxy.  Undefined (k, l) rows are 0.
    """
    K = stats.K
    group_i, group_j, label = np.indices((K, K, 2)).reshape(3, -1)
    proxy = label if l_true is None else l_true
    table = np.zeros((K, K, 2 * K * K))
    for k, l in zip(*np.nonzero(pair_constraint_mask(kind, stats))):
        table[k, l] = _pair_constraint_at_one(kind, stats, k, l, group_i, group_j, proxy)
    return table


def pair_constraint(
    kind: ConstraintKind,
    stats: GroupStats,
    k: int,
    l: int,
    group_i: int,
    group_j: int,
    label: int,
    l_true: float | None = None,
) -> float:
    """Constraint value for one pair evaluated at the given pair label.

    ``l_true`` is the pair's true order probability; by default the
    evaluation label itself is used, which is the observed-label proxy
    when a pair is evaluated at its own label.  Raises ConstraintUndefined
    when the (k, l) entry has no value for this kind and statistics.
    """
    mask = pair_constraint_mask(kind, stats)
    if not mask[k, l]:
        raise ConstraintUndefined(f"{kind.value} constraint undefined for groups ({k},{l})")
    if label == 0:
        return 0.0
    cell = pair_cell(group_i, group_j, label, stats.K)
    return float(pair_constraint_table(kind, stats, l_true)[k, l, cell])


def point_constraint(
    kind: ConstraintKind,
    stats: GroupStats,
    k: int,
    item: Item,
    label: int,
) -> float:
    """Pointwise constraint value for one item at the given label.

    POINT_STATISTICAL compares group membership against the group's item
    share; POINT_EQUAL_OPPORTUNITY restricts the comparison to positive
    items (the observed label stands in for the unknown ground truth).
    """
    mask = point_constraint_mask(kind, stats)
    if not mask[k]:
        raise ConstraintUndefined(f"{kind.value} constraint undefined for group {k}")
    if label == 0:
        return 0.0
    cell = item_cell(item.group, item.label, stats.item_frac.size)
    return float(point_constraint_table(kind, stats)[k, cell])


def point_constraint_table(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K, 2K) pointwise constraint values at label 1 of every item cell.

    Column c holds the items in ``item_cell`` c; each cell's label is the
    proxy.  Undefined rows are 0.
    """
    K = stats.item_frac.size
    groups, labels = np.indices((K, 2)).reshape(2, -1)
    table = np.zeros((K, 2 * K))
    for k in np.flatnonzero(point_constraint_mask(kind, stats)):
        member = (groups == k).astype(float)
        if kind is ConstraintKind.POINT_STATISTICAL:
            table[k] = member / stats.item_frac[k] - 1.0
        else:
            table[k] = labels * (member / stats.pos_item_frac[k] - 1.0 / stats.pos_item_total)
    return table
