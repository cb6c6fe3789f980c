"""Differential tests: the columnar Dataset producers against in-test copies
of their earlier per-row form.

The earlier generator and CSV loader built one Item object per row, grouped
the Items by query, and read columns by stacking the per-Item values.  The
current code builds the columns directly and must give the same bits, the
same query order and the same query boundaries.

The CSV loader now parses the body with one np.loadtxt pass and keeps its
row parser for the files that pass refuses; ``row_load_csv`` is the loader
as it was with the row parser alone, and every file must give it the same
columns or the same error.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairpair.data
from fairpair.data import GROUP_MEAN_SCALE, Dataset, generate_synthetic, load_csv, save_csv
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


def row_load_csv(path, declared_K):
    """The CSV loader before the np.loadtxt pass: csv.reader, then int() and
    float() on each field, then one vectorized row check."""
    path = Path(path)

    def utf8_lines(fh):
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"dataset {path} is not UTF-8 text: {exc}") from None

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(utf8_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"empty dataset: {path} has no header") from None
        if len(header) < 4 or header[:3] != ["query_id", "group", "label"]:
            raise ParseError(
                f"header must start with query_id,group,label,f0,...; got {header}", line=1
            )
        d = len(header) - 3
        if header[3:] != [f"f{i}" for i in range(d)]:
            raise ParseError(f"feature columns must be f0..f{d - 1}; got {header[3:]}", line=1)
        codes = {}
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
    labels, groups = np.array(labels), np.array(groups)
    bad = fairpair.data._first_bad_row(features, labels, groups, declared_K)
    if bad is not None:
        row, problem = bad
        raise ValidationError(f"line {lines[row]}: {problem}")
    order = np.argsort(query, kind="stable")
    offsets = np.cumsum([0, *np.bincount(query)])
    return Dataset(list(codes), offsets, features[order], labels[order], groups[order], declared_K)


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


def load_outcome(load, path):
    """What a loader gives for path at K=2: its columns, or its error's type and message."""
    try:
        ds = load(path, 2)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return ds.query_ids, ds.offsets, ds.features, ds.labels, ds.groups


def assert_same_load(path):
    """load_csv gives row_load_csv's columns bit for bit, or its error; and
    where the file loads, old_load_csv's columns too."""
    new, want = load_outcome(load_csv, path), load_outcome(row_load_csv, path)
    if isinstance(want[0], type):
        assert new == want
        return
    assert isinstance(new[0], list), new
    assert new[0] == want[0]
    for got, ref in zip(new[1:], want[1:]):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert_same_dataset(load_csv(path, 2), old_load_csv(path, 2))


def write_body(path, body, d=1):
    header = ",".join(["query_id", "group", "label"] + [f"f{i}" for i in range(d)])
    path.write_bytes((header + "\r\n" + body).encode("utf-8"))
    return path


# Pieces of CSV text: csv syntax, number syntax, and text that np.loadtxt
# could read differently from int() and float() (a non-ASCII digit, a
# non-ASCII letter loadtxt's integer parser takes for digits, an ASCII
# separator it strips from numbers).
CSV_PIECES = [",", '"', "\r", "\n", " ", *"0123456789", ".", "e", "-", "_", "nan",
              "\u0663", "\u01fe", "\x1c", "+", "\t", "inf", "1e308", "5e-324", "-0.0"]
FIELDS = st.lists(st.sampled_from(CSV_PIECES), max_size=4).map("".join)
BITS = st.sampled_from(["0", "1", " 1", "+0", "1\t", "01"])
FLOATS = st.sampled_from(["0", "-0.0", "0.5", " 2.5e3", "1e-310", "-1e308", "7.", "+.25"])
JUNK = st.sampled_from(["2", "-1", "nan", "-inf", "7e", "1 0", "0x1", ""]) | FIELDS


@st.composite
def csv_bodies(draw):
    """A CSV body: free text over CSV_PIECES, or rows of valid numbers, with
    or without bad values and free text among them."""
    kind = draw(st.sampled_from(["text", "rows", "mixed rows"]))
    if kind == "text":
        return draw(st.lists(st.sampled_from(CSV_PIECES), max_size=40).map("".join))
    ids, bit, num = st.sampled_from(["a", "b", "c", " a", "", "a\tb"]), BITS, FLOATS
    if kind == "mixed rows":
        ids, bit, num = ids | FIELDS, bit | JUNK, num | JUNK
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    rows = draw(st.lists(st.tuples(ids, bit, bit, num, ends), min_size=1, max_size=6))
    return "".join(",".join(row[:-1]) + row[-1] for row in rows)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies())
def test_load_csv_matches_row_parser_property(tmp_path, body):
    assert_same_load(write_body(tmp_path / "data.csv", body))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "body",
    [
        '"a,b",0,1,1.0\n"c",1,0,2.0\n',
        '"a""b",0,1,1.0\nc,1,0,2.0\n',
        '"a\nb",0,1,1.0\nc,1,0,2.0\n',
        "a,0,1,1.0\n\nb,1,0,2.0\n",
        "a,0,1,1.0\nb,1,0,2.0\n\n",
        "\na,0,1,1.0\n",
        "\r\n\r\n",
        "a,0,1,1.0\rb,1,0,2.0\ra,1,1,3.0\r",
        "a,0,1,1.0\r\nb,1,0,2.0\r\na,1,1,3.0\r\n",
        "a,0,1,1.0\n \nb,1,0,2.0\n",
        "a,0,1,1.0,\nb,1,0,2.0\n",
        f"a,0,1,1.0\nb,{2**70},0,2.0\n",
        "a,0,1,1.0\nb,1,0,2.0",
        "a,0\x1c,1,1.0\n",
        "a,\u01fe,1,1.0\n",
        "a,\u0663,1,1_0\n",
        "\u00e9,1,0,2.0\n",
        "",
    ],
    ids=["quoted-comma", "doubled-quote", "quoted-newline", "blank-middle", "blank-end",
         "blank-first", "blank-only",
         "cr-endings", "crlf-endings", "whitespace-line", "trailing-comma", "group-2**70",
         "no-final-newline", "separator-char", "non-ascii-letter", "non-ascii-digit",
         "non-ascii-id", "no-rows"],
)
def test_load_csv_matches_row_parser(tmp_path, body):
    assert_same_load(write_body(tmp_path / "data.csv", body))


def test_saved_csv_loads_without_the_row_parser(tmp_path, monkeypatch):
    # The evaluate-csv benchmark shape, with the extreme doubles save_csv writes;
    # save_csv ends lines with \r\n.  If this file ever fell back to the row
    # parser, the np.loadtxt pass would be silently lost.
    ds, _ = generate_synthetic(400, 60, 5, 2, 1.0, seed=0)
    ds.features[:6, 0] = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 2.5e-320]
    path = tmp_path / "gen.csv"
    save_csv(ds, path)
    assert path.read_bytes().count(b"\r\n") == ds.n_items + 1
    want = load_outcome(row_load_csv, path)

    def refuse(*args):
        raise AssertionError("the row parser ran")

    monkeypatch.setattr(fairpair.data, "_parse_rows", refuse)
    got = load_csv(path, 2)
    assert got.query_ids == want[0] == ds.query_ids
    for new, ref, orig in zip((got.offsets, got.features, got.labels, got.groups), want[1:],
                              (ds.offsets, ds.features, ds.labels, ds.groups)):
        assert new.dtype == ref.dtype and new.flags.c_contiguous
        np.testing.assert_array_equal(new.view(np.uint64), ref.view(np.uint64))
        np.testing.assert_array_equal(new.view(np.uint64), orig.view(np.uint64))
    assert_same_dataset(got, old_load_csv(path, 2))
