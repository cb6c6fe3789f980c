"""The per-(k, l) pairwise constraint and the per-entry exponent sum,
kept as test oracles.

``pair_constraint_table`` builds every (k, l) row of the table in one
broadcast expression.  It used to call ``pair_constraint_at_one`` once per
defined (k, l) entry; ``loop_pair_constraint_table`` is that loop.
``reweight._exponents`` sums its entries' weighted table rows in one
reduction; ``loop_exponents`` is the running sum it replaced.
``reweight._own_label_weights`` is ``stable_sigmoid`` of the signed
exponent; ``exp_own_label_weights`` is the normalized exponential it replaced.
"""

import numpy as np

from fairpair.constraints import ConstraintKind, GroupStats, pair_constraint_mask


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
    """reweight._exponents as a running sum, one defined entry with a nonzero
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
