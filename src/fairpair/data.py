"""Dataset loading, synthesis, query splitting, and pair construction.

The canonical on-disk format is a CSV with header
``query_id,group,label,f0,...,f{d-1}``.  Rows sharing a query_id form one
query; row order within a query is preserved.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .model import stable_sigmoid

# Spread of the group-conditioned feature means in the synthetic generator.
# The means are projected orthogonal to the hidden quality direction, so
# group membership is visible in the features but carries no quality signal.
GROUP_MEAN_SCALE = 1.0


@dataclass(eq=False)
class QueryGroup:
    """One query's rows: views into its dataset's columns, in input order."""

    query_id: str
    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __len__(self) -> int:
        return self.labels.size


@dataclass(eq=False)
class Dataset:
    """Queries stored as columns with a shared feature dimension and group count.

    The rows of query q are ``offsets[q]:offsets[q + 1]``; each query's rows
    are contiguous and keep their input order.
    """

    query_ids: list[str]
    offsets: np.ndarray  # (n_queries + 1,) int64, offsets[0] == 0
    features: np.ndarray  # (n_items, d) float64
    labels: np.ndarray  # (n_items,) int64
    groups: np.ndarray  # (n_items,) int64
    K: int

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_items(self) -> int:
        return self.labels.size

    @cached_property
    def queries(self) -> list[QueryGroup]:
        """One view per query, in query order."""
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return [
            QueryGroup(qid, self.features[a:b], self.labels[a:b], self.groups[a:b])
            for qid, (a, b) in zip(self.query_ids, bounds)
        ]

    def validate(self) -> "Dataset":
        """Reject inconsistent columns, duplicate query ids, empty queries and
        bad rows; returns self."""
        n, offsets = self.n_items, self.offsets
        if not (self.labels.shape == self.groups.shape == self.features.shape[:1] == (n,)
                and self.features.ndim == 2 and offsets.shape == (len(self.query_ids) + 1,)
                and offsets[0] == 0 and offsets[-1] == n and (np.diff(offsets) >= 0).all()):
            raise ValidationError("query offsets and columns do not describe the same rows")
        seen = set()
        for qid in self.query_ids:
            if qid in seen:
                raise ValidationError(f"duplicate query_id {qid!r}")
            seen.add(qid)
        empty = np.flatnonzero(np.diff(offsets) == 0)
        if empty.size:
            raise ValidationError(f"query {self.query_ids[empty[0]]!r} has no items")
        bad = _first_bad_row(self.features, self.labels, self.groups, self.K)
        if bad is not None:
            row, problem = bad
            qi = np.searchsorted(offsets, row, side="right") - 1
            raise ValidationError(f"query {self.query_ids[qi]!r}: {problem}")
        return self


def _first_bad_row(features, labels, groups, K: int) -> tuple[int, str] | None:
    """The first row with a label outside {0,1}, a group outside [0, K) or a
    non-finite feature, and what is wrong with it; None when every row is valid."""
    bad_label = (labels != 0) & (labels != 1)
    bad_group = (groups < 0) | (groups >= K)
    bad_feature = ~np.isfinite(features).all(axis=1)
    rows = np.flatnonzero(bad_label | bad_group | bad_feature)
    if not rows.size:
        return None
    row = int(rows[0])
    if bad_label[row]:
        return row, f"label {labels[row]} not in {{0,1}}"
    if bad_group[row]:
        return row, f"group {groups[row]} outside [0, {K})"
    return row, "non-finite feature value"


def pair_cell(group_i, group_j, label, K: int):
    """Index of a pair's (group_i, group_j, label) in the row-major (K, K, 2) grid."""
    return np.ravel_multi_index((group_i, group_j, label), (K, K, 2))


def item_cell(group, label, K: int):
    """Index of an item's (group, label) in the row-major (K, 2) grid."""
    return np.ravel_multi_index((group, label), (K, 2))


@dataclass(eq=False)
class PairArrays:
    """Per-pair columns gathered from a PairSet's dataset, in pair order.

    ``feat_diff`` is built on first read and kept: only the trainer's
    objective and gradient read it, so a pair set that is only scored or
    counted never holds the (n_pairs, d) block.
    """

    label: np.ndarray  # int64, 1 when item i is the positive one
    cell: np.ndarray  # pair_cell of each pair: its groups and label
    row_i: np.ndarray  # int32 row of item i in the dataset's columns
    row_j: np.ndarray  # int32 row of item j
    features: np.ndarray  # the dataset's (n_items, d) column, not a copy

    @cached_property
    def feat_diff(self) -> np.ndarray:
        """(n_pairs, d) float64 rows x_i - x_j."""
        diff = self.features[self.row_i]
        diff -= self.features[self.row_j]
        return diff


@dataclass(eq=False)
class PairSet:
    """All ordered discordant pairs of a dataset, in deterministic order.

    A pair is a row of three int32 index columns: its query and the
    positions of items i and j within that query.  ``arrays`` gathers each
    pair's label, group cell and item rows from the dataset's columns:
    17 bytes a pair up to K=11, besides the 12 of the index columns.
    """

    query_index: np.ndarray
    i: np.ndarray
    j: np.ndarray
    source: Dataset

    def __len__(self) -> int:
        return self.i.size

    @cached_property
    def arrays(self) -> PairArrays:
        ds = self.source
        # Each pair's query start, shifted to the rows of items i and j in the
        # dataset's columns; make_pairs checked that every row fits int32.
        row_j = ds.offsets[:-1].astype(np.int32)[self.query_index]
        row_i = row_j + self.i
        row_j += self.j
        # Labels differ within a pair, so the pair label is item i's label.
        label = ds.labels[row_i]
        # pair_cell is linear in its coordinates, so it splits into a part of
        # item i (group and label) and a part of item j (group).  Stored in the
        # narrowest dtype that holds 2K² ids (1 byte up to K=11).
        cell_dtype = np.min_scalar_type(2 * ds.K**2 - 1)
        part_i = pair_cell(ds.groups, 0, ds.labels, ds.K).astype(cell_dtype)
        part_j = pair_cell(0, ds.groups, 0, ds.K).astype(cell_dtype)
        cell = part_i[row_i]
        cell += part_j[row_j]
        return PairArrays(label, cell, row_i, row_j, ds.features)


@dataclass(eq=False)
class SynthTruth:
    """Per-item true label probabilities from the synthetic generator.

    ``item_probs[q][i]`` is the unbiased probability that item i of query q
    is positive.
    """

    item_probs: list[np.ndarray]


def load_csv(path, declared_K: int) -> Dataset:
    """Load a dataset from the canonical CSV schema.

    The feature dimension is inferred from the header; ``declared_K`` caps
    the allowed group ids.  Raises ParseError (with line number) on
    malformed rows and ValidationError on schema or value violations;
    malformed rows are reported before out-of-range values.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"empty dataset: {path} has no header") from None
        if len(header) < 4 or header[:3] != ["query_id", "group", "label"]:
            raise ParseError(
                f"header must start with query_id,group,label,f0,...; got {header}",
                line=1,
            )
        d = len(header) - 3
        expected_feats = [f"f{i}" for i in range(d)]
        if header[3:] != expected_feats:
            raise ParseError(
                f"feature columns must be f0..f{d - 1}; got {header[3:]}", line=1
            )

        # Query ids are numbered in order of first appearance.
        codes: dict[str, int] = {}
        query, groups, labels, feats, lines = [], [], [], [], []
        for row in reader:
            line = reader.line_num
            if len(row) != 3 + d:
                raise ParseError(f"expected {3 + d} columns, got {len(row)}", line=line)
            try:
                groups.append(int(row[1]))
            except ValueError:
                raise ParseError(f"group {row[1]!r} is not an integer", line=line) from None
            try:
                labels.append(int(row[2]))
            except ValueError:
                raise ParseError(f"label {row[2]!r} is not an integer", line=line) from None
            try:
                feats.extend([float(v) for v in row[3:]])
            except ValueError:
                raise ParseError(f"non-numeric feature in {row[3:]}", line=line) from None
            query.append(codes.setdefault(row[0], len(codes)))
            lines.append(line)

    if not lines:
        raise ValidationError(f"empty dataset: {path} has a header but no rows")
    features = np.array(feats, dtype=np.float64).reshape(len(lines), d)
    # A value beyond int64 makes a float or object column, which the row
    # check rejects, so the columns that pass it are int64.
    labels, groups = np.array(labels), np.array(groups)
    bad = _first_bad_row(features, labels, groups, declared_K)
    if bad is not None:
        row, problem = bad
        raise ValidationError(f"line {lines[row]}: {problem}")
    order = np.argsort(query, kind="stable")
    offsets = np.cumsum([0, *np.bincount(query)])
    return Dataset(list(codes), offsets, features[order], labels[order], groups[order], declared_K)


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8; bytes that do not decode
    are a ValidationError naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dataset {path} is not UTF-8 text: {exc}") from None


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the canonical CSV schema.

    Features are written with repr, which round-trips every finite double
    bit-exactly through load_csv.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "group", "label"] + [f"f{i}" for i in range(ds.d)])
        for q in ds.queries:
            for group, label, feats in zip(q.groups.tolist(), q.labels.tolist(), q.features.tolist()):
                writer.writerow([q.query_id, group, label] + [repr(v) for v in feats])


def save_truth_csv(truth: SynthTruth, ds: Dataset, path) -> None:
    """Sidecar with the per-item true positive probability, in dataset row order."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "y_true"])
        for q, probs in zip(ds.queries, truth.item_probs):
            for p in probs.tolist():
                writer.writerow([q.query_id, repr(p)])


def _round_half_down(x: float) -> int:
    # Rounds .5 ties downward, which leaves the tied query in the training set.
    return int(math.ceil(x - 0.5))


def split_queries(
    ds: Dataset, ratio_test: float, ratio_valid: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition queries into train/valid/test with rounded ratios.

    Both ratios are fractions of the *total* query count.  The partition is
    at query granularity and deterministic for a fixed seed.
    """
    if ratio_test < 0 or ratio_valid < 0:
        raise ValidationError("split ratios must be nonnegative")
    if ratio_test + ratio_valid >= 1:
        raise ValidationError("ratio_test + ratio_valid must be < 1")
    if seed < 0:
        raise ValidationError("split seed must be >= 0")
    n_queries = len(ds.queries)
    n_test = _round_half_down(ratio_test * n_queries)
    n_valid = _round_half_down(ratio_valid * n_queries)
    n_train = n_queries - n_test - n_valid
    if (ratio_test > 0 and n_test == 0) or (ratio_valid > 0 and n_valid == 0) or n_train <= 0:
        raise ValidationError(
            f"too few queries ({n_queries}) to give each requested split at least one query"
        )

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_queries)
    test_idx = sorted(perm[:n_test].tolist())
    valid_idx = sorted(perm[n_test : n_test + n_valid].tolist())
    train_idx = sorted(perm[n_test + n_valid :].tolist())

    def subset(idx):
        sizes = np.diff(ds.offsets)[idx]
        offsets = np.cumsum([0, *sizes])
        # Each chosen query's rows, shifted from its old start to its new one.
        rows = np.arange(offsets[-1]) + np.repeat(ds.offsets[idx] - offsets[:-1], sizes)
        qids = [ds.query_ids[i] for i in idx]
        return Dataset(qids, offsets, ds.features[rows], ds.labels[rows], ds.groups[rows], ds.K)

    return subset(train_idx), subset(valid_idx), subset(test_idx)


def make_pairs(ds: Dataset) -> PairSet:
    """Emit every ordered within-query pair whose item labels differ.

    Both orientations are produced, so each discordant unordered pair
    contributes one pair with label 1 and one with label 0.  Output order
    is query order, then i, then j.  The index columns are int32; a dataset
    with more items than int32 can address is a ValidationError.
    """
    if ds.n_items > np.iinfo(np.int32).max:
        raise ValidationError(f"{ds.n_items} items is more than int32 pair indices can address")
    parts = [(np.zeros(0, dtype=np.int32),) * 3]
    for qi, q in enumerate(ds.queries):
        lab = q.labels
        # nonzero walks row-major (i, then j); the diagonal never differs.
        i, j = np.nonzero(lab[:, None] != lab[None, :])
        parts.append((np.full(i.size, qi, dtype=np.int32), i.astype(np.int32), j.astype(np.int32)))
    qidx, ii, jj = (np.concatenate(col) for col in zip(*parts))
    return PairSet(qidx, ii, jj, ds)


def generate_synthetic(
    n_queries: int,
    items_per_query: int,
    d: int,
    K: int,
    bias_strength: float,
    seed: int,
) -> tuple[Dataset, SynthTruth]:
    """Generate a dataset with a known ground truth and controlled label bias.

    A hidden unit vector v defines item quality; the true positive
    probability is sigmoid(v.x).  Observed labels are drawn from
    sigmoid(v.x - bias_strength) for items outside group 0, so a positive
    bias_strength depresses the observed positive rate of every non-zero
    group while the ground truth stays group-neutral.
    """
    if n_queries < 1 or items_per_query < 1 or d < 1 or K < 1:
        raise ValidationError("all synthetic generator counts must be >= 1")
    if seed < 0:
        raise ValidationError("synthetic generator seed must be >= 0")

    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    means = rng.normal(size=(K, d)) * GROUP_MEAN_SCALE
    # Remove the quality component so groups differ in features, not merit.
    means -= np.outer(means @ v, v)

    # Drawn query by query in a fixed order, so a seed keeps giving the same dataset.
    columns = []
    probs: list[np.ndarray] = []
    for _ in range(n_queries):
        groups = rng.integers(0, K, size=items_per_query)
        feats = means[groups] + rng.normal(size=(items_per_query, d))
        quality = feats @ v
        true_p = stable_sigmoid(quality)
        observed_p = stable_sigmoid(quality - bias_strength * (groups != 0))
        labels = (rng.random(items_per_query) < observed_p).astype(np.int64)
        columns.append((feats, labels, groups))
        probs.append(np.asarray(true_p, dtype=np.float64))

    features, labels, groups = (np.concatenate(col) for col in zip(*columns))
    offsets = np.arange(n_queries + 1, dtype=np.int64) * items_per_query
    ds = Dataset([f"q{qi}" for qi in range(n_queries)], offsets, features, labels, groups, K)
    return ds, SynthTruth(probs)
