"""Dataset loading, synthesis, query splitting, and pair construction.

The canonical on-disk format is a CSV with header
``query_id,group,label,f0,...,f{d-1}``.  Rows sharing a query_id form one
query; row order within a query is preserved.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .model import stable_sigmoid

# Spread of the group-conditioned feature means in the synthetic generator.
# The means are projected orthogonal to the hidden quality direction, so
# group membership is visible in the features but carries no quality signal.
GROUP_MEAN_SCALE = 1.0

# Passes over the pairs of a PairSet, and the trainer's gathers of rows
# x_i - x_j, work in chunks of about this many bytes: PAIR_CHUNK pairs, or
# whole minibatches of rows.  So no pass allocates a temporary as long as
# the pair set.
GATHER_BYTES = 256 * 1024
PAIR_CHUNK = GATHER_BYTES // 8

# The CSV writers turn this many values of a column into Python objects at a
# time, so writing holds about one block per column, not a copy of the data.
WRITE_BLOCK = 1024

# The largest group count.  A run holds about 81 bytes per group pair to
# measure and reweigh once and 17 more per outer iteration (about 450 MiB
# at K = 1024, T = 20), and each history.csv row has 2K² + 5 columns.
MAX_GROUPS = 1024


def pair_chunks(n: int):
    """Slices of PAIR_CHUNK pairs covering range(n), in order."""
    return (slice(a, a + PAIR_CHUNK) for a in range(0, n, PAIR_CHUNK))


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


def _check_items(ds: Dataset, use: str) -> None:
    """A ValidationError naming ``use`` unless every label is in {0, 1}, and
    one worded as load_csv's unless every group is in [0, K)."""
    if ((ds.labels != 0) & (ds.labels != 1)).any():
        raise ValidationError(f"{use} need every item label in {{0, 1}}")
    bad = (ds.groups < 0) | (ds.groups >= ds.K)
    if bad.any():
        raise ValidationError(f"group {ds.groups[bad.argmax()]} outside [0, {ds.K})")


def _check_group_count(K: int) -> None:
    """A ValidationError unless K <= MAX_GROUPS, the largest K whose K²
    group-pair state and 2K²-column history rows a run is sized for."""
    if K > MAX_GROUPS:
        raise ValidationError(
            f"group count K={K} exceeds {MAX_GROUPS}: a run holds state for each of "
            "the K² group pairs"
        )


def item_cell(group, label, K: int):
    """Index of an item's (group, label) in the row-major (K, 2) grid."""
    return np.ravel_multi_index((group, label), (K, 2))


@dataclass(eq=False)
class PairSet:
    """Every discordant within-query pair once, positive item first, in
    deterministic order.

    A pair is its two items: their int32 rows in the dataset's columns.  It
    stands for both ordered pairs of the pairwise objective: (i, j) at pair
    label 1 and its mirror (j, i) at label 0, whose loss terms are the same.
    ``arrays`` is each pair's cell, group_i * K + group_j: 9 bytes a pair
    up to K=16, with the two row columns.  Building, counting, weighting
    and measuring the pairs work a chunk at a time (see pair_chunks), so
    their temporaries are bounded by one chunk.
    """

    row_i: np.ndarray
    row_j: np.ndarray
    source: Dataset

    def __len__(self) -> int:
        return self.row_i.size

    @cached_property
    def arrays(self) -> np.ndarray:
        ds = self.source
        # Stored in the narrowest dtype that holds K² ids (1 byte up to K=16).
        cell_dtype = np.min_scalar_type(ds.K**2 - 1)
        first, second = (ds.groups * ds.K).astype(cell_dtype), ds.groups.astype(cell_dtype)
        cell = np.empty(len(self), cell_dtype)
        for part in pair_chunks(len(self)):
            first.take(self.row_i[part], out=cell[part])
            cell[part] += second.take(self.row_j[part])
        return cell

    def cell_counts(self) -> np.ndarray:
        """(K, K) int64 number of pairs of each group pair (group_i, group_j)."""
        K, cell = self.source.K, self.arrays
        counts = np.zeros(K * K, dtype=np.int64)
        for part in pair_chunks(len(self)):
            counts += np.bincount(cell[part], minlength=K * K)
        return counts.reshape(K, K)


@dataclass(eq=False)
class SynthTruth:
    """Per-item true label probabilities from the synthetic generator.

    ``item_probs[q][i]`` is the unbiased probability that item i of query q
    is positive.
    """

    item_probs: list[np.ndarray]


def load_csv(path, declared_K: int) -> Dataset:
    """Load a dataset from the canonical CSV schema.

    The feature dimension is inferred from the header; ``declared_K``, at
    most MAX_GROUPS, caps the allowed group ids.  Raises ParseError (with
    line number) on malformed rows and ValidationError on schema or value
    violations; malformed rows are reported before out-of-range values.

    The body is parsed in one ``np.loadtxt`` pass.  A body that pass
    rejects, or could read differently from the row parser (see
    ``_BodyLines``), is read again from the start by the row parser, so
    every file gives the same columns or the same error either way.
    """
    _check_group_count(declared_K)
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        d = _read_header(_records(fh, path), path)
        parsed = _loadtxt_body(fh, d)
        if parsed is None:
            fh.seek(0)
            records = _records(fh, path)
            next(records)  # the header, checked above
            parsed = _parse_rows(records, d)
    ids, groups, labels, features, lines = parsed
    if not lines:
        raise ValidationError(f"empty dataset: {path} has a header but no rows")
    bad = _first_bad_row(features, labels, groups, declared_K)
    if bad is not None:
        row, problem = bad
        raise ValidationError(f"line {lines[row]}: {problem}")
    groups, labels = groups.astype(np.int64, copy=False), labels.astype(np.int64, copy=False)
    # Query ids are numbered in order of first appearance.
    codes = {qid: code for code, qid in enumerate(dict.fromkeys(ids))}
    query = np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))
    order = np.argsort(query, kind="stable")
    offsets = np.cumsum([0, *np.bincount(query)])
    return Dataset(list(codes), offsets, features[order], labels[order], groups[order], declared_K)


def _records(fh, path):
    """(line number, fields) of each CSV record of a text file opened as
    UTF-8.  Bytes that do not decode are a ValidationError naming the file;
    a record csv rejects, such as one with a field over
    ``csv.field_size_limit()``, is a ParseError naming its line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dataset {path} is not UTF-8 text: {exc}") from None


def _read_header(records, path) -> int:
    """Check the header record; returns the feature dimension d."""
    _, header = next(records, (None, None))
    if header is None:
        raise ValidationError(f"empty dataset: {path} has no header")
    if len(header) < 4 or header[:3] != ["query_id", "group", "label"]:
        raise ParseError(
            f"header must start with query_id,group,label,f0,...; got {header}", line=1
        )
    d = len(header) - 3
    expected_feats = [f"f{i}" for i in range(d)]
    if header[3:] != expected_feats:
        raise ParseError(f"feature columns must be f0..f{d - 1}; got {header[3:]}", line=1)
    return d


def _parse_rows(records, d: int):
    """The row parser: int() and float() on each field of each record.
    Returns (query id, group, label, features and line number of each row)."""
    ids, groups, labels, feats, lines = [], [], [], [], []
    for line, row in records:
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
        ids.append(row[0])
        lines.append(line)
    features = np.array(feats, dtype=np.float64).reshape(len(lines), d)
    # Exact ints, even beyond int64; load_csv makes the checked columns int64.
    return ids, np.array(groups, dtype=object), np.array(labels, dtype=object), features, lines


class _Refused(Exception):
    """The np.loadtxt pass leaves this body to the row parser."""


# np.loadtxt strips the ASCII separators \x1c-\x1f around a number, which
# int() and float() reject, and reads '"' as text where csv reads a quote.
_REFUSED_CHARS = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


class _BodyLines:
    """The remaining lines of an open CSV, read in chunks and counted, for
    np.loadtxt.  Raises _Refused on a chunk the row parser could read
    differently: one that is not ASCII (loadtxt's integer parser takes some
    non-ASCII letters for digits), starts with an empty line, holds a
    _REFUSED_CHARS character, or has a line longer than
    ``csv.field_size_limit()``; and on an empty body.  So loadtxt always
    finds data, and a row count short of ``count`` means it skipped an
    empty line."""

    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def __iter__(self):
        limit = csv.field_size_limit()
        while lines := self.fh.readlines(1 << 16):  # about 64k characters a chunk
            text = "".join(lines)
            if (not text.isascii() or text[0] in "\r\n"
                    or any(c in text for c in _REFUSED_CHARS)
                    or max(map(len, lines)) > limit):
                raise _Refused
            self.count += len(lines)
            yield from lines
        if not self.count:
            raise _Refused


def _loadtxt_body(fh, d: int):
    """Parse the rest of fh, the body after a one-line header, in one
    np.loadtxt pass; the same tuple as _parse_rows, or None when the row
    parser must read the file instead."""
    body = _BodyLines(fh)
    dtype = np.dtype([("query_id", object), ("group", np.int64), ("label", np.int64),
                      ("features", np.float64, (d,))])
    try:
        table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                           ndmin=1)
    except (ValueError, _Refused):  # includes a UnicodeDecodeError
        return None
    # loadtxt skips empty lines, which the row parser reports.
    if table.size != body.count:
        return None
    # Without quotes each row is one line.  The header is line 1: a header
    # record spanning lines has a line break in a field, which _read_header
    # rejects.
    lines = range(2, 2 + body.count)
    return table["query_id"].tolist(), table["group"], table["label"], table["features"], lines


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the canonical CSV schema.

    Features are written with repr, which round-trips every finite double
    bit-exactly through load_csv.
    """
    header = ["query_id", "group", "label"] + [f"f{i}" for i in range(ds.d)]
    columns = [_values(ds.groups), _values(ds.labels), *map(_values, ds.features.T)]
    _write_rows(path, header, ds.query_ids, np.diff(ds.offsets), columns)


def save_truth_csv(truth: SynthTruth, ds: Dataset, path) -> None:
    """Sidecar with the per-item true positive probability, in dataset row order."""
    probs = chain.from_iterable(map(_values, truth.item_probs))
    _write_rows(path, ["query_id", "y_true"], ds.query_ids, map(len, truth.item_probs), [probs])


def _values(column: np.ndarray):
    """The values of a 1-d array as Python scalars, converted WRITE_BLOCK at a time."""
    n = WRITE_BLOCK
    return chain.from_iterable(column[a : a + n].tolist() for a in range(0, len(column), n))


def _csv_field(value) -> str:
    """value as csv.writer writes it as one field of a row of several."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _write_rows(path, header: list[str], query_ids, sizes, columns) -> None:
    """Write a CSV as csv.writer would: the header row, then rows of a query
    id and one value from each column.  Query q's id, quoted once, leads its
    next sizes[q] rows.  The values are Python ints and floats, which need
    no quotes, and "{}" formats a float as its repr.  map formats the rows,
    with no Python loop over them."""
    ids = chain.from_iterable(map(repeat, map(_csv_field, query_ids), sizes))
    row = ",".join(["{}"] * (1 + len(columns))) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map(row.format, ids, *columns))


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
    n_queries = len(ds.query_ids)
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
    """Emit every within-query pair (i, j) with label[i] > label[j].

    Each discordant pair comes once, positive item first; its mirror (j, i)
    at pair label 0 is implied (see PairSet).  Output order is query order,
    then i, then j.  The pairs are counted first, pos * (size - pos) a
    query, and each query's positives × negatives are written into the
    int32 row columns, so beyond them it holds only counts over the items.
    A dataset with more items than int32 can address, or with a label
    outside {0, 1} or a group outside [0, K), is a ValidationError.
    """
    if ds.n_items > np.iinfo(np.int32).max:
        raise ValidationError(f"{ds.n_items} items is more than int32 pair indices can address")
    _check_items(ds, "pairs")
    offsets = ds.offsets
    n_pos = np.diff(np.concatenate(([0], np.cumsum(ds.labels)))[offsets])
    ends = np.cumsum(n_pos * (np.diff(offsets) - n_pos)).tolist()
    row_i = np.empty(ends[-1] if ends else 0, dtype=np.int32)
    row_j = np.empty_like(row_i)
    a = 0
    for start, stop, b in zip(offsets[:-1].tolist(), offsets[1:].tolist(), ends):
        if a == b:
            continue
        lab = ds.labels[start:stop]
        i, j = np.flatnonzero(lab), np.flatnonzero(lab == 0)
        # Row-major (i, then j): each positive against every negative.
        np.add(i[:, None], start, out=row_i[a:b].reshape(i.size, j.size), casting="unsafe")
        np.add(j, start, out=row_j[a:b].reshape(i.size, j.size), casting="unsafe")
        a = b
    return PairSet(row_i, row_j, ds)


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
    _check_group_count(K)

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
