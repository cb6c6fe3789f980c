"""Differential tests: the columnar Dataset producers against in-test copies
of their earlier per-row form.

The earlier generator and CSV loader built one Item object per row, grouped
the Items by query, and read columns by stacking the per-Item values.  The
current code builds the columns directly and must give the same bits, the
same query order and the same query boundaries.
"""

import csv
from dataclasses import dataclass

import numpy as np
import pytest

from fairpair.data import GROUP_MEAN_SCALE, generate_synthetic, load_csv, save_csv
from fairpair.errors import ParseError, ValidationError
from fairpair.model import stable_sigmoid


@dataclass(frozen=True)
class OldItem:
    features: np.ndarray
    label: int
    group: int


def old_generate_synthetic(n_queries, items_per_query, d, K, bias_strength, seed):
    """The per-Item generator; returns [(query_id, [OldItem])] and item_probs."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    means = rng.normal(size=(K, d)) * GROUP_MEAN_SCALE
    means -= np.outer(means @ v, v)
    queries = []
    probs = []
    for qi in range(n_queries):
        groups = rng.integers(0, K, size=items_per_query)
        feats = means[groups] + rng.normal(size=(items_per_query, d))
        quality = feats @ v
        true_p = stable_sigmoid(quality)
        observed_p = stable_sigmoid(quality - bias_strength * (groups != 0))
        labels = (rng.random(items_per_query) < observed_p).astype(int)
        items = [OldItem(feats[t], int(labels[t]), int(groups[t])) for t in range(items_per_query)]
        queries.append((f"q{qi}", items))
        probs.append(np.asarray(true_p, dtype=np.float64))
    return queries, probs


def old_load_csv(path, declared_K):
    """The per-Item loader with its per-row checks; returns [(query_id, [OldItem])]."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 3
        order = []
        by_query = {}
        for row in reader:
            line = reader.line_num
            if len(row) != 3 + d:
                raise ParseError(f"expected {3 + d} columns, got {len(row)}", line=line)
            group = int(row[1])
            label = int(row[2])
            feats = np.array([float(v) for v in row[3:]], dtype=np.float64)
            if label not in (0, 1):
                raise ValidationError(f"line {line}: label {label} not in {{0,1}}")
            if not 0 <= group < declared_K:
                raise ValidationError(f"line {line}: group {group} outside [0, {declared_K})")
            if not np.all(np.isfinite(feats)):
                raise ValidationError(f"line {line}: non-finite feature value")
            if row[0] not in by_query:
                order.append(row[0])
                by_query[row[0]] = []
            by_query[row[0]].append(OldItem(feats, label, group))
    return [(qid, by_query[qid]) for qid in order]


def old_columns(queries):
    """Columns as the earlier Dataset stacked them: per query, then concatenated."""
    features = np.concatenate(
        [np.asarray([it.features for it in items], dtype=np.float64) for _, items in queries]
    )
    labels = np.concatenate(
        [np.asarray([it.label for it in items], dtype=np.int64) for _, items in queries]
    )
    groups = np.concatenate(
        [np.asarray([it.group for it in items], dtype=np.int64) for _, items in queries]
    )
    sizes = [len(items) for _, items in queries]
    bounds = np.cumsum([0] + sizes)
    return [qid for qid, _ in queries], bounds, features, labels, groups


def assert_same_dataset(ds, queries):
    query_ids, bounds, features, labels, groups = old_columns(queries)
    assert ds.query_ids == query_ids
    assert ds.offsets.dtype == np.int64
    np.testing.assert_array_equal(ds.offsets, bounds)
    for got, want in ((ds.features, features), (ds.labels, labels), (ds.groups, groups)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for q, (qid, items) in zip(ds.queries, queries):
        assert q.query_id == qid and len(q) == len(items)
        np.testing.assert_array_equal(
            q.features.view(np.uint64), np.asarray([it.features for it in items]).view(np.uint64)
        )


@pytest.mark.parametrize(
    "shape",
    [
        (6, 8, 3, 2, 0.7, 5),
        (1, 1, 1, 1, 1.0, 0),
        (5, 1, 4, 3, 2.0, 9),
        (7, 9, 2, 1, 0.0, 3),
        (3, 40, 6, 8, -1.5, 12),
    ],
    ids=["6x8-K2", "1x1-K1", "items1-K3", "K1", "3x40-K8"],
)
def test_generate_synthetic_matches_per_item(shape):
    ds, truth = generate_synthetic(*shape)
    queries, probs = old_generate_synthetic(*shape)
    assert_same_dataset(ds, queries)
    assert len(truth.item_probs) == len(probs)
    for got, want in zip(truth.item_probs, probs):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def write_rows(tmp_path, d, rows):
    path = tmp_path / "data.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "group", "label"] + [f"f{i}" for i in range(d)])
        writer.writerows(rows)
    return path


def random_rows(rng, query_order, d, K):
    """One CSV row per entry of query_order, with random finite features."""
    return [
        [qid, int(rng.integers(0, K)), int(rng.integers(0, 2))]
        + [repr(float(x)) for x in rng.normal(scale=10.0, size=d)]
        for qid in query_order
    ]


@pytest.mark.parametrize(
    "query_order",
    [
        ["b", "a", "b"],
        ["x", "y", "z", "w"],
        ["q1", "q2", "q1", "q3", "q2", "q2", "q1", "q3"],
        ["only"] * 5,
    ],
    ids=["interleaved", "single-item-queries", "interleaved-3", "one-query"],
)
def test_load_csv_matches_per_item(tmp_path, rng, query_order):
    path = write_rows(tmp_path, 3, random_rows(rng, query_order, 3, 2))
    assert_same_dataset(load_csv(path, 2), old_load_csv(path, 2))


def test_load_csv_matches_per_item_on_generated_csv(tmp_path):
    ds, _ = generate_synthetic(12, 7, 4, 3, 1.0, seed=2)
    path = tmp_path / "gen.csv"
    save_csv(ds, path)
    assert_same_dataset(load_csv(path, 3), old_load_csv(path, 3))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, "0", "2", "1.0"), "line 3: label 2 not in {0,1}"),
        ((2, "-1", "1", "1.0"), "line 4: group -1 outside [0, 2)"),
        ((0, "5", "7", "nan"), "line 2: label 7 not in {0,1}"),
        ((1, "0", "1", "-inf"), "line 3: non-finite feature value"),
        ((2, str(2**70), "1", "1.0"), f"line 4: group {2**70} outside [0, 2)"),
    ],
)
def test_row_checks_report_the_same_line(tmp_path, bad, message):
    rows = [["a", "0", "1", "0.5"], ["a", "1", "0", "0.25"], ["b", "0", "0", "2.0"]]
    at, group, label, feature = bad
    rows[at] = [rows[at][0], group, label, feature]
    path = write_rows(tmp_path, 1, rows)
    with pytest.raises(ValidationError) as new:
        load_csv(path, 2)
    with pytest.raises(ValidationError) as old:
        old_load_csv(path, 2)
    assert str(new.value) == str(old.value) == message
