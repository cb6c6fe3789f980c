"""Shared builders for hand-constructed datasets and pair sets, and a numerical gradient."""

import numpy as np
import pytest

from fairpair.data import Dataset, PairSet, make_pairs
from fairpair.model import LinearRankingModel
from loss_oracle import weighted_loss


def build_dataset(queries, d, K):
    """queries: list of (query_id, labels, groups, features)."""
    sizes = [len(labels) for _, labels, _, _ in queries]
    return Dataset(
        [qid for qid, _, _, _ in queries],
        np.cumsum([0] + sizes, dtype=np.int64),
        np.array([f for q in queries for f in q[3]], dtype=np.float64).reshape(sum(sizes), d),
        np.array([l for q in queries for l in q[1]], dtype=np.int64),
        np.array([g for q in queries for g in q[2]], dtype=np.int64),
        K,
    ).validate()


def random_dataset(rng, n_queries=4, items_per_query=8, d=3, K=2):
    """A small random dataset with mixed labels in every query."""
    queries = []
    for qi in range(n_queries):
        labels = rng.integers(0, 2, size=items_per_query)
        # Force at least one of each label so every query has pairs.
        labels[0], labels[1] = 0, 1
        groups = rng.integers(0, K, size=items_per_query)
        feats = rng.normal(size=(items_per_query, d))
        queries.append((f"q{qi}", labels, groups, feats))
    return build_dataset(queries, d=d, K=K)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def pair_feature_diff(ps):
    """The (n_pairs, d) feature rows x_i - x_j of a pair set's pairs."""
    X = ps.source.features
    return X[ps.row_i] - X[ps.row_j]


def pair_subset(ps, idx):
    """The pairs of ps at positions idx, as a pair set on the same dataset."""
    return PairSet(ps.row_i[idx], ps.row_j[idx], ps.source)


def numeric_gradient(ps, weights, w, h=1e-6):
    """Central differences of weighted_loss in the model weights w."""
    grad = np.empty(w.size)
    for c in range(w.size):
        step = np.zeros(w.size)
        step[c] = h
        up = weighted_loss(LinearRankingModel(w + step), ps, weights)
        down = weighted_loss(LinearRankingModel(w - step), ps, weights)
        grad[c] = (up - down) / (2 * h)
    return grad


def all_cells_pairs():
    """A K=2 pair set with a pair in each of the 4 label-1 cells, so its
    ordered pairs fill all 8 (group_i, group_j, label) cells."""
    ds = build_dataset([("q", [1, 0, 0, 1], [0, 1, 0, 1], [[0.0]] * 4)], d=1, K=2)
    return make_pairs(ds)
