"""Group statistics and the pairwise / pointwise constraints, in closed form.

The statistics count the ordered pairs (or items) of each group cell and
label.  A constraint gives each labeled pair (or item) a signed value whose
mean under the model's predicted labels measures group bias; a fair model
has zero mean.  Every constraint is zero at predicted label 0; at observed
label 0 only the two statistical families are not.  An entry's value at a
cell reads the cell's counts and one total, so violations and weight
exponents are (K, K) expressions; observed labels proxy true order probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, PairSet, _check_items, item_cell, make_pairs
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
    """Per-cell counts of a pair set's ordered pairs, or of a dataset's items.

    ``counts`` is (K, K, 2) ordered pairs per (group_i, group_j, pair label),
    or (K, 2) items per (group, label), out of ``n``.  The fractions the
    constraints divide by serve both shapes: ``pair_frac`` counts both labels
    of a cell and ``pos_pair_frac`` its label 1, over n; ``pos_frac`` is the
    label-1 share of all n, 0.5 for every non-empty pair set, as each pair
    is one label-1 and one label-0 ordered pair.
    """

    counts: np.ndarray
    n: int

    @property
    def K(self) -> int:
        return self.counts.shape[0]

    @property
    def pair_frac(self) -> np.ndarray:
        return self.counts.sum(axis=-1) / self.n

    @property
    def pos_pair_frac(self) -> np.ndarray:
        return self.counts[..., 1] / self.n

    @property
    def pos_frac(self) -> float:
        return float(self.counts[..., 1].sum() / self.n)


def compute_group_stats(ps: PairSet) -> GroupStats:
    """Count the ordered pairs of each group pair and label.

    Each pair is the label-1 pair (i, j) of its group pair and the label-0
    pair (j, i) of the transposed one, so the label-0 counts are the
    transpose of the label-1 counts, out of 2 * len(ps) ordered pairs.
    """
    if not len(ps):
        raise ValidationError("cannot compute group statistics of an empty pair set")
    pos = ps.cell_counts()
    return GroupStats(np.stack((pos.T, pos), axis=-1), 2 * len(ps))


def pairs_and_stats(ds: Dataset, name: str) -> tuple[PairSet, GroupStats]:
    """The pair set of a split and its statistics; a split with no discordant
    pair is a ValidationError naming it as ``name``."""
    ps = make_pairs(ds)
    if not len(ps):
        raise ValidationError(f"{name} has no discordant pairs")
    return ps, compute_group_stats(ps)


def compute_point_stats(ds) -> GroupStats:
    """Count the items of each group and label, for the pointwise constraints."""
    if ds.n_items == 0:
        raise ValidationError("cannot compute item statistics of an empty dataset")
    _check_items(ds, "item statistics")
    counts = np.bincount(item_cell(ds.groups, ds.labels, ds.K), minlength=2 * ds.K)
    return GroupStats(counts.reshape(ds.K, 2), ds.n_items)


def pair_constraint_mask(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K, K) boolean mask of group pairs where the constraint has a value (see _form)."""
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    return _form(kind, stats)[0]


def point_constraint_mask(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """(K,) boolean mask of groups where the pointwise constraint has a value."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    return _form(kind, stats)[0]


def _form(kind: ConstraintKind, stats: GroupStats):
    """(mask, denominators, total, label factors): at a cell of label y, entry
    e of kind is labels[y] * ([cell in e] / denominators[e] - 1 / total).
    The statistical kinds divide by the both-label fraction, over total 1,
    the others by the label-1 fraction, over pos_frac; marginal entry (k, l)
    holds row k's cells, over the row's sum.  An entry is defined where its
    denominator is > 0, off the diagonal for ``statistical`` and ``inter``
    and on it for ``intra``.  Counts of the other shape are a ValidationError.
    """
    if kind.is_pairwise != (stats.counts.ndim == 3):
        want = "pair" if kind.is_pairwise else "item"
        raise ValidationError(f"{kind} needs {want} statistics, got counts {stats.counts.shape}")
    if kind in (ConstraintKind.PAIR_STATISTICAL, ConstraintKind.POINT_STATISTICAL):
        denom, total, labels = stats.pair_frac, 1.0, (1.0, 1.0)
    else:
        denom, total, labels = stats.pos_pair_frac, stats.pos_frac, (0.0, 1.0)
    if kind is ConstraintKind.PAIR_MARGINAL:
        denom = denom.sum(axis=1, keepdims=True)
    mask = np.broadcast_to(denom > 0, stats.counts.shape[:-1]).copy()
    if kind in (ConstraintKind.PAIR_STATISTICAL, ConstraintKind.PAIR_INTER_GROUP):
        mask &= ~np.eye(stats.K, dtype=bool)
    elif kind is ConstraintKind.PAIR_INTRA_GROUP:
        mask &= np.eye(stats.K, dtype=bool)
    return mask, denom, total, labels


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
