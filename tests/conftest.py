"""Shared builders for hand-constructed datasets and pair sets, a dataset
checker and a numerical gradient."""

import numpy as np
import pytest

from fairpair.data import Dataset, PairSet, _first_bad_row, make_pairs
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel
from loss_oracle import weighted_loss


def validate_dataset(ds):
    """Reject inconsistent columns, duplicate query ids, empty queries and
    bad rows of a dataset built in code; returns ds.  load_csv checks its
    rows with the same _first_bad_row."""
    n, offsets = ds.n_items, ds.offsets
    if not (ds.labels.shape == ds.groups.shape == ds.features.shape[:1] == (n,)
            and ds.features.ndim == 2 and offsets.shape == (len(ds.query_ids) + 1,)
            and offsets[0] == 0 and offsets[-1] == n and (np.diff(offsets) >= 0).all()):
        raise ValidationError("query offsets and columns do not describe the same rows")
    seen = set()
    for qid in ds.query_ids:
        if qid in seen:
            raise ValidationError(f"duplicate query_id {qid!r}")
        seen.add(qid)
    empty = np.flatnonzero(np.diff(offsets) == 0)
    if empty.size:
        raise ValidationError(f"query {ds.query_ids[empty[0]]!r} has no items")
    bad = _first_bad_row(ds.features, ds.labels, ds.groups, ds.K)
    if bad is not None:
        row, problem = bad
        qi = np.searchsorted(offsets, row, side="right") - 1
        raise ValidationError(f"query {ds.query_ids[qi]!r}: {problem}")
    return ds


def build_dataset(queries, d, K):
    """queries: list of (query_id, labels, groups, features)."""
    sizes = [len(labels) for _, labels, _, _ in queries]
    return validate_dataset(Dataset(
        [qid for qid, _, _, _ in queries],
        np.cumsum([0] + sizes, dtype=np.int64),
        np.array([f for q in queries for f in q[3]], dtype=np.float64).reshape(sum(sizes), d),
        np.array([l for q in queries for l in q[1]], dtype=np.int64),
        np.array([g for q in queries for g in q[2]], dtype=np.int64),
        K,
    ))


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
