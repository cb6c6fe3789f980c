"""The model-taking measurements that per-item scores replaced, kept as a
differential oracle: ``expected_bias`` scored each item as ``features @ w``
(no bias) and ``auc`` as ``features @ w + b``.  Bodies copied unchanged,
but for the probability clamp, which the library has since dropped."""

import numpy as np

from constraint_oracle import pair_constraint_table
from fairpair.constraints import (
    ConstraintKind,
    GroupStats,
    pair_constraint_mask,
)
from fairpair.data import Dataset, PairSet, pair_chunks
from fairpair.errors import ValidationError
from fairpair.model import (
    LinearRankingModel,
    check_dimension,
    score_matrix,
    stable_sigmoid,
)
from fairpair.reweight import DeltaMatrix


def expected_bias(
    model: LinearRankingModel, ps: PairSet, stats: GroupStats, kind: ConstraintKind
) -> DeltaMatrix:
    """Mean predicted-order-probability-weighted constraint per group pair,
    over the ordered pairs.

    Scores every item once; an ordered pair's predicted order probability
    is the sigmoid of its two items' score difference, so no pair features
    are built.  The pairs are read a chunk at a time (see data.pair_chunks)
    into running per-cell sums.  Only the predicted-label-1 term counts, as
    constraints vanish at predicted label 0.  Entries whose constraint is
    undefined are masked and read 0.
    """
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if not len(ps):
        raise ValidationError("cannot evaluate expected bias on an empty pair set")
    check_dimension(model, ps.source.d)
    # X @ w is not slice-stable, so the items are scored in one product.
    s = ps.source.features @ model.w
    # Constraint values depend only on an ordered pair's (k, l, label) cell.  A
    # pair is (i, j) at label 1, predicted sigmoid(z), and (j, i) at label 0 of
    # the transposed group pair, predicted sigmoid(-z).  add.at sums each
    # cell in pair order across chunks, the order of one whole bincount.
    cell, K = ps.arrays, stats.K
    pos, neg = np.zeros(K * K), np.zeros(K * K)
    for part in pair_chunks(len(ps)):
        z = s.take(ps.row_i[part])
        z -= s.take(ps.row_j[part])
        np.add.at(pos, cell[part], stable_sigmoid(z))
        np.negative(z, out=z)
        np.add.at(neg, cell[part], stable_sigmoid(z))
    cell_sums = np.stack((neg.reshape(K, K).T, pos.reshape(K, K)), axis=-1)
    table = pair_constraint_table(kind, stats)
    return DeltaMatrix(table @ cell_sums.ravel() / (2 * len(ps)), pair_constraint_mask(kind, stats))


def auc(model: LinearRankingModel, ds: Dataset) -> tuple[float, list[float]]:
    """Mean per-query AUC; queries without a discordant pair are excluded.

    Each query's AUC counts its discordant pairs with half credit for score
    ties, via midranks.  One order by (query, score) ranks every query at
    once: an unstable sort of the n scores, then a sort of the unique keys
    query * n + rank, which is cheaper than a stable float sort.  Tied
    scores share one midrank, so their order within a tie is immaterial;
    midranks are half-integers, so their per-query sums are exact.
    """
    sizes = np.diff(ds.offsets)
    query = np.repeat(np.arange(sizes.size), sizes)
    scores = score_matrix(model, ds.features)
    rank = np.empty(scores.size, dtype=np.int64)
    rank[np.argsort(scores)] = np.arange(scores.size)
    order = np.argsort(query * scores.size + rank)
    scores, query = scores[order], query[order]
    # Runs of tied scores within a query, by their first sorted position.
    new_run = np.ones(scores.size, dtype=bool)
    new_run[1:] = (query[1:] != query[:-1]) | (scores[1:] != scores[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=scores.size)
    # Sorting keeps each query's rows at its offsets, so ranks count from there.
    first = starts - ds.offsets[query[starts]]
    midranks = np.repeat((2 * first + counts + 1) / 2.0, counts)
    positive = ds.labels[order] == 1
    n_pos = np.bincount(query[positive], minlength=sizes.size)
    pos_rank_sum = np.bincount(query[positive], weights=midranks[positive], minlength=sizes.size)
    defined = (n_pos > 0) & (n_pos < sizes)
    if not defined.any():
        raise ValidationError("AUC undefined: no query has a discordant pair")
    n_pos, n_neg = n_pos[defined], sizes[defined] - n_pos[defined]
    per_query = (pos_rank_sum[defined] - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(np.mean(per_query)), per_query.tolist()
