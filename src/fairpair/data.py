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


@dataclass(frozen=True)
class Item:
    """One query-item row: feature vector, binary label, group id."""

    features: np.ndarray
    label: int
    group: int


@dataclass(eq=False)
class QueryGroup:
    """All items belonging to one query, in input order."""

    query_id: str
    items: list[Item]

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def features(self) -> np.ndarray:
        """(n_items, d) feature matrix."""
        return np.asarray([it.features for it in self.items], dtype=np.float64)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.asarray([it.label for it in self.items], dtype=np.int64)

    @cached_property
    def groups(self) -> np.ndarray:
        return np.asarray([it.group for it in self.items], dtype=np.int64)


@dataclass(eq=False)
class Dataset:
    """A collection of queries with a shared feature dimension and group count."""

    queries: list[QueryGroup]
    d: int
    K: int

    def validate(self) -> "Dataset":
        seen = set()
        for q in self.queries:
            if q.query_id in seen:
                raise ValidationError(f"duplicate query_id {q.query_id!r}")
            seen.add(q.query_id)
            if not q.items:
                raise ValidationError(f"query {q.query_id!r} has no items")
            for it in q.items:
                if it.features.shape != (self.d,):
                    raise ValidationError(
                        f"query {q.query_id!r}: feature dimension "
                        f"{it.features.shape} != {self.d}"
                    )
                if not np.all(np.isfinite(it.features)):
                    raise ValidationError(
                        f"query {q.query_id!r}: non-finite feature value"
                    )
                if it.label not in (0, 1):
                    raise ValidationError(
                        f"query {q.query_id!r}: label {it.label} not in {{0,1}}"
                    )
                if not 0 <= it.group < self.K:
                    raise ValidationError(
                        f"query {q.query_id!r}: group {it.group} outside [0, {self.K})"
                    )
        return self

    @property
    def n_items(self) -> int:
        return sum(len(q) for q in self.queries)

    @cached_property
    def flat_features(self) -> np.ndarray:
        """(n_items, d) features of all items, query order then item order."""
        if not self.queries:
            return np.zeros((0, self.d))
        return np.concatenate([q.features for q in self.queries], axis=0)

    @cached_property
    def flat_labels(self) -> np.ndarray:
        if not self.queries:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([q.labels for q in self.queries])

    @cached_property
    def flat_groups(self) -> np.ndarray:
        if not self.queries:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([q.groups for q in self.queries])


def pair_cell(group_i, group_j, label, K: int):
    """Index of a pair's (group_i, group_j, label) in the row-major (K, K, 2) grid."""
    return np.ravel_multi_index((group_i, group_j, label), (K, K, 2))


def item_cell(group, label, K: int):
    """Index of an item's (group, label) in the row-major (K, 2) grid."""
    return np.ravel_multi_index((group, label), (K, 2))


@dataclass(eq=False)
class PairArrays:
    """Column view of a PairSet for vectorized computation."""

    query_index: np.ndarray
    i: np.ndarray
    j: np.ndarray
    label: np.ndarray
    group_i: np.ndarray
    group_j: np.ndarray
    feat_diff: np.ndarray  # (n_pairs, d) rows x_i - x_j
    cell: np.ndarray  # pair_cell of each pair


@dataclass(eq=False)
class PairSet:
    """All ordered discordant pairs of a dataset, in deterministic order.

    A pair is a row of three index columns: its query and the positions of
    items i and j within that query.  ``arrays`` gathers labels, groups and
    feature differences from the dataset's flat item arrays.
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
        sizes = np.asarray([len(q) for q in ds.queries], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        # Flat item indices into ds.flat_*.
        fi = offsets[self.query_index] + self.i
        fj = offsets[self.query_index] + self.j
        diff = ds.flat_features[fi]
        diff -= ds.flat_features[fj]
        groups = ds.flat_groups
        # Labels differ within a pair, so the pair label is item i's label.
        label = ds.flat_labels[fi]
        gi, gj = groups[fi], groups[fj]
        # Stored in the narrowest dtype that holds 2K² ids (1 byte up to K=11).
        cell = pair_cell(gi, gj, label, ds.K).astype(np.min_scalar_type(2 * ds.K**2 - 1))
        return PairArrays(self.query_index, self.i, self.j, label, gi, gj, diff, cell)


@dataclass(eq=False)
class SynthTruth:
    """Per-item true label probabilities from the synthetic generator.

    ``item_probs[q][i]`` is the unbiased probability that item i of query q
    is positive.  Pair-level truth is derived on demand: given that the two
    labels differ, the probability that i's draw was the positive one.
    """

    item_probs: list[np.ndarray]

    def item_prob(self, query_index: int, item_index: int) -> float:
        return float(self.item_probs[query_index][item_index])

    def pair_prob(self, query_index: int, i: int, j: int) -> float | None:
        """True order probability for pair (i, j); None when undefined."""
        p_i = self.item_prob(query_index, i)
        p_j = self.item_prob(query_index, j)
        num = p_i * (1.0 - p_j)
        den = num + (1.0 - p_i) * p_j
        if den == 0.0:
            return None
        return num / den


def load_csv(path, declared_K: int) -> Dataset:
    """Load a dataset from the canonical CSV schema.

    The feature dimension is inferred from the header; ``declared_K`` caps
    the allowed group ids.  Raises ParseError (with line number) on
    malformed rows and ValidationError on schema or value violations.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

        order: list[str] = []
        by_query: dict[str, list[Item]] = {}
        n_rows = 0
        for row in reader:
            line = reader.line_num
            if len(row) != 3 + d:
                raise ParseError(
                    f"expected {3 + d} columns, got {len(row)}", line=line
                )
            qid = row[0]
            try:
                group = int(row[1])
            except ValueError:
                raise ParseError(f"group {row[1]!r} is not an integer", line=line) from None
            try:
                label = int(row[2])
            except ValueError:
                raise ParseError(f"label {row[2]!r} is not an integer", line=line) from None
            try:
                feats = np.array([float(v) for v in row[3:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric feature in {row[3:]}", line=line) from None

            if label not in (0, 1):
                raise ValidationError(f"line {line}: label {label} not in {{0,1}}")
            if not 0 <= group < declared_K:
                raise ValidationError(
                    f"line {line}: group {group} outside [0, {declared_K})"
                )
            if not np.all(np.isfinite(feats)):
                raise ValidationError(f"line {line}: non-finite feature value")

            if qid not in by_query:
                order.append(qid)
                by_query[qid] = []
            by_query[qid].append(Item(feats, label, group))
            n_rows += 1

    if n_rows == 0:
        raise ValidationError(f"empty dataset: {path} has a header but no rows")
    queries = [QueryGroup(qid, by_query[qid]) for qid in order]
    return Dataset(queries, d=d, K=declared_K).validate()


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
            for it in q.items:
                writer.writerow(
                    [q.query_id, it.group, it.label] + [repr(float(v)) for v in it.features]
                )


def save_truth_csv(truth: SynthTruth, ds: Dataset, path) -> None:
    """Sidecar with the per-item true positive probability, in dataset row order."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "y_true"])
        for qi, q in enumerate(ds.queries):
            for t in range(len(q)):
                writer.writerow([q.query_id, repr(float(truth.item_probs[qi][t]))])


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
        return Dataset([ds.queries[i] for i in idx], d=ds.d, K=ds.K)

    return subset(train_idx), subset(valid_idx), subset(test_idx)


def make_pairs(ds: Dataset) -> PairSet:
    """Emit every ordered within-query pair whose item labels differ.

    Both orientations are produced, so each discordant unordered pair
    contributes one pair with label 1 and one with label 0.  Output order
    is query order, then i, then j.
    """
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for qi, q in enumerate(ds.queries):
        lab = q.labels
        # nonzero walks row-major (i, then j); the diagonal never differs.
        i, j = np.nonzero(lab[:, None] != lab[None, :])
        parts.append((np.full(i.size, qi), i, j))
    qidx, ii, jj = (np.concatenate(col).astype(np.int64, copy=False) for col in zip(*parts))
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

    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    means = rng.normal(size=(K, d)) * GROUP_MEAN_SCALE
    # Remove the quality component so groups differ in features, not merit.
    means -= np.outer(means @ v, v)

    queries: list[QueryGroup] = []
    probs: list[np.ndarray] = []
    for qi in range(n_queries):
        groups = rng.integers(0, K, size=items_per_query)
        feats = means[groups] + rng.normal(size=(items_per_query, d))
        quality = feats @ v
        true_p = stable_sigmoid(quality)
        observed_p = stable_sigmoid(quality - bias_strength * (groups != 0))
        labels = (rng.random(items_per_query) < observed_p).astype(int)
        items = [
            Item(feats[t], int(labels[t]), int(groups[t]))
            for t in range(items_per_query)
        ]
        queries.append(QueryGroup(f"q{qi}", items))
        probs.append(np.asarray(true_p, dtype=np.float64))

    ds = Dataset(queries, d=d, K=K).validate()
    return ds, SynthTruth(probs)
