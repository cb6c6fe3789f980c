"""Shared builders for hand-constructed datasets."""

import numpy as np
import pytest

from fairpair.data import Dataset


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
