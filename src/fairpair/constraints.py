"""Group statistics and the pairwise / pointwise constraints, in closed form.

A constraint assigns each labeled pair (or item) a signed value whose
average under the model's predicted label distribution measures group
bias; a fair model has zero average.  Every constraint is zero at predicted
label 0; at observed label 0 only the two statistical families are not.
Each entry's value at a cell reads that cell's group pair and one total, so
violations and weight exponents are (K, K) array expressions.  True order
probabilities are unknown in practice and proxied by the observed labels.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _form(kind: ConstraintKind, stats: GroupStats):
    """(mask, denominators, total, label factors): at a cell of label y, entry
    e of kind is labels[y] * ([cell in e] / denominators[e] - 1 / total).
    A marginal entry (k, l) holds row k's cells, over the row's total."""
    if kind.is_pointwise:
        mask = point_constraint_mask(kind, stats)
        if kind is ConstraintKind.POINT_STATISTICAL:
            return mask, stats.item_frac, 1.0, (1.0, 1.0)
        return mask, stats.pos_item_frac, stats.pos_item_total, (0.0, 1.0)
    mask = pair_constraint_mask(kind, stats)
    if kind is ConstraintKind.PAIR_STATISTICAL:
        return mask, stats.pair_frac, 1.0, (1.0, 1.0)
    if kind is ConstraintKind.PAIR_MARGINAL:
        return mask, stats.pos_pair_frac.sum(axis=1, keepdims=True), stats.pos_frac, (0.0, 1.0)
    return mask, stats.pos_pair_frac, stats.pos_frac, (0.0, 1.0)


def _per_entry(kind: ConstraintKind, x: np.ndarray, mask, denom, total):
    """x's part in each entry over its denominator, 0 where undefined (never
    divided), and x's sum over the total; x is shaped as the mask."""
    own = np.zeros(mask.shape)
    if not mask.any():
        return own, 0.0
    part = x.sum(axis=1, keepdims=True) if kind is ConstraintKind.PAIR_MARGINAL else x
    np.divide(part, denom, out=own, where=mask)
    return own, x.sum() / total


def constraint_bias(kind: ConstraintKind, stats: GroupStats, cell_sums: np.ndarray, n: int):
    """Violation of every entry: the mean over ``n`` ordered pairs (or items)
    of the constraint at predicted label 1 times its probability, from the
    probabilities' sums P per cell, (K, K, 2) for pairs and (K, 2) for items.

    An entry reads its own cells and the total: for ``statistical``
    ((P0 + P1) / pair_frac - sum(P)) / n, for ``inter`` and ``intra``
    (P1 / pos_pair_frac - sum(P1) / pos_frac) / n; ``marginal`` sums P1 and
    pos_pair_frac along each row first.  Undefined entries read 0.  Returns
    the violations and the mask of defined entries.
    """
    mask, denom, total, labels = _form(kind, stats)
    own, rest = _per_entry(kind, cell_sums @ labels, mask, denom, total)
    return np.where(mask, own - rest, 0.0) / n, mask


def constraint_exponents(kind: ConstraintKind, stats: GroupStats, coeffs: np.ndarray) -> np.ndarray:
    """Exponent of every cell, (K, K, 2) for pairs and (K, 2) for items: the
    sum over defined entries of the coefficient times the entry's constraint
    at the cell.  With c the coefficients, 0 on undefined entries (even
    infinite ones), that is c / pair_frac - sum(c) at both labels for
    ``statistical``, and c / pos_pair_frac - sum(c) / pos_frac at label 1
    (0 at label 0) for ``inter`` and ``intra``; ``marginal`` sums c along
    each row first.
    """
    mask, denom, total, labels = _form(kind, stats)
    own, rest = _per_entry(kind, np.where(mask, coeffs, 0.0), mask, denom, total)
    return (own - rest)[..., None] * labels
