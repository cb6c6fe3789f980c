"""The constraint tables the library's closed forms replaced, the per-(k, l)
constraint and the per-entry exponent sum, kept as test oracles.

``pair_constraint_table`` and ``point_constraint_table`` hold every
entry's constraint at every cell, (K, K, 2K²) and (K, 2K) doubles;
``table_exponents`` sums the coefficient-weighted rows of a table, the
former ``reweight._exponents``.  ``table_bias`` and ``table_cell_exponents``
apply them as ``constraints.constraint_bias`` and
``constraints.constraint_exponents`` do in closed form, and ``table_algebra``
patches them into ``reweight`` for tests that compare bits recorded or
computed through the tables.

``pair_constraint_table`` builds every (k, l) row of the table in one
broadcast expression.  It used to call ``pair_constraint_at_one`` once per
defined (k, l) entry; ``loop_pair_constraint_table`` is that loop.
``table_exponents`` sums its entries' weighted table rows in one
reduction; ``loop_exponents`` is the running sum it replaced.
``reweight._own_label_weights`` is ``stable_sigmoid`` of the signed
exponent; ``exp_own_label_weights`` is the normalized exponential it replaced.

``FractionStats``, ``fraction_group_stats`` and ``fraction_point_stats`` are
the group statistics as fractions, the layout ``constraints.GroupStats`` had
before it held per-cell counts: the pair and item fields side by side, with
the pair fields zeroed for items.  ``fraction_pair_mask`` and
``fraction_point_mask`` are the masks read off that layout, one rule per kind.
"""

from dataclasses import dataclass

import numpy as np

from fairpair import reweight
from fairpair.constraints import (
    ConstraintKind,
    GroupStats,
    pair_constraint_mask,
    point_constraint_mask,
)
from fairpair.data import PairSet, _check_items
from fairpair.errors import ValidationError


@dataclass(eq=False)
class FractionStats:
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


def fraction_group_stats(ps: PairSet) -> FractionStats:
    """Count group-pair membership and positive-label proportions over all ordered pairs.

    Each pair is the label-1 pair (i, j) of its group pair and the label-0
    pair (j, i) of the transposed one, so the label-0 counts are the
    transpose of the label-1 counts, out of 2 * len(ps) ordered pairs.
    """
    if not len(ps):
        raise ValidationError("cannot compute group statistics of an empty pair set")
    n = 2 * len(ps)
    pos = ps.cell_counts()
    return FractionStats((pos + pos.T) / n, pos / n, float(pos.sum() / n), *_item_stats(ps.source))


def fraction_point_stats(ds) -> FractionStats:
    """Item-only statistics for pointwise constraints; pair fields are zeroed."""
    if ds.n_items == 0:
        raise ValidationError("cannot compute item statistics of an empty dataset")
    _check_items(ds, "item statistics")
    item_frac, pos_item_frac = _item_stats(ds)
    K = ds.K
    return FractionStats(np.zeros((K, K)), np.zeros((K, K)), 0.0, item_frac, pos_item_frac)


def fraction_pair_mask(kind: ConstraintKind, stats: FractionStats) -> np.ndarray:
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


def fraction_point_mask(kind: ConstraintKind, stats: FractionStats) -> np.ndarray:
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
    """
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
    K = stats.K
    groups, labels = np.indices((K, 2)).reshape(2, -1)
    table = np.zeros((K, 2 * K))
    for k in np.flatnonzero(point_constraint_mask(kind, stats)):
        member = (groups == k).astype(float)
        if kind is ConstraintKind.POINT_STATISTICAL:
            table[k] = member / stats.pair_frac[k] - 1.0
        else:
            table[k] = labels * (member / stats.pos_pair_frac[k] - 1.0 / stats.pos_frac)
    return table


def table_exponents(coeffs: np.ndarray, mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-cell sum of coeffs[e] * table[e] over defined entries e with nonzero coefficients.

    The rows of terms are summed in entry order, the bits of a running sum
    from zeros (a matrix product sums in another order).  The sum is added
    to zeros, so a cell whose terms are all -0.0 reads +0.0 as in that
    running sum, whichever value numpy's reduction starts from.
    """
    held = mask & (coeffs != 0.0)
    terms = table[held]
    terms *= coeffs[held][:, None]
    s = np.zeros(table.shape[-1])
    s += terms.sum(axis=0)
    return s


def _table_and_mask(kind: ConstraintKind, stats: GroupStats):
    if kind.is_pairwise:
        return pair_constraint_table(kind, stats), pair_constraint_mask(kind, stats)
    return point_constraint_table(kind, stats), point_constraint_mask(kind, stats)


def table_bias(kind: ConstraintKind, stats: GroupStats, cell_sums: np.ndarray, n: int) -> np.ndarray:
    """constraints.constraint_bias as the table's product with the cell sums."""
    table, mask = _table_and_mask(kind, stats)
    return table @ cell_sums.ravel() / n, mask


def table_cell_exponents(kind: ConstraintKind, stats: GroupStats, coeffs: np.ndarray) -> np.ndarray:
    """constraints.constraint_exponents as the table's coefficient-weighted row sum."""
    table, mask = _table_and_mask(kind, stats)
    return table_exponents(coeffs, mask, table).reshape(*mask.shape, 2)


def table_algebra(monkeypatch) -> None:
    """Route reweight's violations and exponents through the tables."""
    monkeypatch.setattr(reweight, "constraint_bias", table_bias)
    monkeypatch.setattr(reweight, "constraint_exponents", table_cell_exponents)


def pair_constraint_at_one(
    kind: ConstraintKind,
    stats: GroupStats,
    k: int,
    l: int,
    group_i: np.ndarray,
    group_j: np.ndarray,
    label: np.ndarray,
) -> np.ndarray:
    """(k, l) constraint value at pair label 1 of pairs with the given groups
    and observed labels; the label proxies the true order probability."""
    if kind is ConstraintKind.PAIR_STATISTICAL:
        member = (group_i == k) & (group_j == l)
        return member / stats.pair_frac[k, l] - 1.0
    if kind is ConstraintKind.PAIR_INTER_GROUP or kind is ConstraintKind.PAIR_INTRA_GROUP:
        member = (group_i == k) & (group_j == l)
        return label * (member / stats.pos_pair_frac[k, l] - 1.0 / stats.pos_frac)
    # Marginal: membership of the first item only, against the row total.
    member = group_i == k
    return label * (member / stats.pos_pair_frac[k].sum() - 1.0 / stats.pos_frac)


def loop_pair_constraint_table(kind: ConstraintKind, stats: GroupStats) -> np.ndarray:
    """pair_constraint_table as one pair_constraint_at_one call per defined entry."""
    K = stats.K
    group_i, group_j, label = np.indices((K, K, 2)).reshape(3, -1)
    table = np.zeros((K, K, 2 * K * K))
    for k, l in zip(*np.nonzero(pair_constraint_mask(kind, stats))):
        table[k, l] = pair_constraint_at_one(kind, stats, k, l, group_i, group_j, label)
    return table


def loop_exponents(coeffs: np.ndarray, mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table_exponents as a running sum, one defined entry with a nonzero
    coefficient at a time."""
    s = np.zeros(table.shape[-1])
    for e in zip(*np.nonzero(mask & (coeffs != 0.0))):
        s += coeffs[e] * table[e]
    return s


def exp_own_label_weights(s: np.ndarray) -> np.ndarray:
    """reweight._own_label_weights as the normalized exponential over the two
    labels; cells alternate labels 0, 1.

    The two labels' weights are proportional to exp(0) and exp(s).
    """
    m = np.maximum(s, 0.0)
    e0, e1 = np.exp(-m), np.exp(s - m)
    return np.where(np.arange(s.size) % 2 == 1, e1, e0) / (e0 + e1)
