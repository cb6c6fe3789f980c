"""Group statistics and the pairwise / pointwise constraint functions.

A constraint assigns each labeled pair (or item) a signed value whose
average under the model's predicted label distribution measures group
bias; a fair model has zero average.  Every constraint is zero at predicted
label 0; at observed label 0 only the two statistical families are not.

True order probabilities inside the inter/intra/marginal formulas are
unknown in practice and are proxied by the observed pair labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset, PairSet, _check_items, make_pairs
from .errors import ValidationError


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
    """Empirical group statistics of a pair set's ordered pairs and its source items.

    pair_frac[k, l]      fraction of ordered pairs whose items fall in (G_k, G_l)
    pos_pair_frac[k, l]  fraction of ordered pairs in (G_k, G_l) with pair label 1
    pos_frac             fraction of all ordered pairs with pair label 1; 0.5
                         for every non-empty pair set, as each pair is one
                         label-1 and one label-0 ordered pair
    item_frac[k]         fraction of source items in G_k
    pos_item_frac[k]     fraction of source items in G_k with label 1
    """

    pair_frac: np.ndarray
    pos_pair_frac: np.ndarray
    pos_frac: float
    item_frac: np.ndarray
    pos_item_frac: np.ndarray
    # pair_constraint_table's tables of these statistics, by kind.
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def K(self) -> int:
        return self.pair_frac.shape[0]

    @property
    def pos_item_total(self) -> float:
        return float(self.pos_item_frac.sum())


def _item_stats(ds) -> tuple[np.ndarray, np.ndarray]:
    n = ds.n_items
    item_frac = np.bincount(ds.groups, minlength=ds.K) / n
    pos_item_frac = np.bincount(ds.groups, weights=ds.labels.astype(float), minlength=ds.K) / n
    return item_frac, pos_item_frac


def compute_group_stats(ps: PairSet) -> GroupStats:
    """Count group-pair membership and positive-label proportions over all ordered pairs.

    Each pair is the label-1 pair (i, j) of its group pair and the label-0
    pair (j, i) of the transposed one, so the label-0 counts are the
    transpose of the label-1 counts, out of 2 * len(ps) ordered pairs.
    """
    if not len(ps):
        raise ValidationError("cannot compute group statistics of an empty pair set")
    n = 2 * len(ps)
    pos = ps.cell_counts()
    return GroupStats((pos + pos.T) / n, pos / n, float(pos.sum() / n), *_item_stats(ps.source))


def pairs_and_stats(ds: Dataset, name: str) -> tuple[PairSet, GroupStats]:
    """The pair set of a split and its statistics; a split with no discordant
    pair is a ValidationError naming it as ``name``."""
    ps = make_pairs(ds)
    if not len(ps):
        raise ValidationError(f"{name} has no discordant pairs")
    return ps, compute_group_stats(ps)


def compute_point_stats(ds) -> GroupStats:
    """Item-only statistics for pointwise constraints; pair fields are zeroed."""
    if ds.n_items == 0:
        raise ValidationError("cannot compute item statistics of an empty dataset")
    _check_items(ds, "item statistics")
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
        return off_diag & (stats.pos_pair_frac > 0)
    if kind is ConstraintKind.PAIR_INTRA_GROUP:
        return np.eye(K, dtype=bool) & (stats.pos_pair_frac > 0)
    # Marginal: one constraint per first-group k, replicated across l.
    row_ok = stats.pos_pair_frac.sum(axis=1) > 0
    return np.repeat(row_ok[:, None], K, axis=1)


def point_constraint_mask(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K,) boolean mask of groups where the pointwise constraint has a value."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    if kind is ConstraintKind.POINT_STATISTICAL:
        return stats.item_frac > 0
    return (stats.pos_item_frac > 0) & (stats.pos_item_total > 0)


def pair_constraint_table(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K, K, 2K²) constraint values at pair label 1 of every ordered cell.

    Entry [k, l, c] is the (k, l) constraint of ordered cell c, a row-major
    (group_i, group_j, label); its label is the proxy.  Undefined rows are 0.
    Each kind's table is built once per GroupStats and shared read-only, so
    the statistics must not change after their first table is built.
    """
    table = stats._tables.get(kind)
    if table is None:
        table = stats._tables[kind] = _build_pair_constraint_table(kind, stats)
        table.flags.writeable = False
    return table


def _build_pair_constraint_table(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    defined = pair_constraint_mask(kind, stats)[..., None]
    K = stats.K
    group_i, group_j, label = np.indices((K, K, 2)).reshape(3, -1)
    k, l = np.indices((K, K, 1))[:2]
    if kind is ConstraintKind.PAIR_MARGINAL:
        # Membership of the first item only, against the row total.
        member, denom = group_i == k, stats.pos_pair_frac.sum(axis=1, keepdims=True)
    else:
        member = (group_i == k) & (group_j == l)
        denom = stats.pair_frac if kind is ConstraintKind.PAIR_STATISTICAL else stats.pos_pair_frac
    table = np.zeros((K, K, 2 * K * K))
    # Undefined entries are never computed, so their zero denominators cannot warn.
    np.divide(member, denom[..., None], out=table, where=defined)
    if kind is ConstraintKind.PAIR_STATISTICAL:
        return np.subtract(table, 1.0, out=table, where=defined)
    np.subtract(table, 1.0 / stats.pos_frac, out=table, where=defined)
    return np.multiply(label, table, out=table)


def point_constraint_table(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K, 2K) pointwise constraint values at label 1 of every item cell.

    Column c holds the items in ``item_cell`` c; each cell's label is the
    proxy.  POINT_STATISTICAL compares group membership against the group's
    item share; POINT_EQUAL_OPPORTUNITY restricts the comparison to positive
    items.  Undefined rows are 0.
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
