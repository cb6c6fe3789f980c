"""The violations as measured over clamped probabilities, kept as a
differential oracle: ``expected_bias`` and ``point_expected_bias`` summed
``clamp_prob(stable_sigmoid(z))``, each probability clamped into
[1e-12, 1 - 1e-12].  Bodies copied unchanged."""

import numpy as np

from constraint_oracle import pair_constraint_table, point_constraint_table
from fairpair.constraints import (
    ConstraintKind,
    GroupStats,
    pair_constraint_mask,
    point_constraint_mask,
)
from fairpair.data import Dataset, PairSet, item_cell, pair_chunks
from fairpair.errors import ValidationError
from fairpair.model import check_scores, stable_sigmoid
from fairpair.reweight import DeltaMatrix
from loss_oracle import clamp_prob


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
        np.add.at(pos, cell[part], clamp_prob(stable_sigmoid(z)))
        np.negative(z, out=z)
        np.add.at(neg, cell[part], clamp_prob(stable_sigmoid(z)))
    cell_sums = np.stack((neg.reshape(K, K).T, pos.reshape(K, K)), axis=-1)
    table = pair_constraint_table(kind, stats)
    return DeltaMatrix(table @ cell_sums.ravel() / (2 * len(ps)), pair_constraint_mask(kind, stats))


def point_expected_bias(
    scores: np.ndarray, ds: Dataset, stats: GroupStats, kind: ConstraintKind
) -> DeltaMatrix:
    """Per-group item-level violation of per-item scores (one a row of ds)."""
    if not kind.is_pointwise:
        raise ValidationError(f"{kind} is not a pointwise constraint kind")
    p = clamp_prob(stable_sigmoid(check_scores(scores, ds.n_items)))
    table = point_constraint_table(kind, stats)
    cells = item_cell(ds.groups, ds.labels, ds.K)
    cell_sums = np.bincount(cells, weights=p, minlength=table.shape[-1])
    return DeltaMatrix(table @ cell_sums / p.size, point_constraint_mask(kind, stats))
