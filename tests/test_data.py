"""Tests for CSV loading, query splitting, pair generation, and synthesis."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, pair_feature_diff, random_dataset
from fairpair.data import (
    Dataset,
    _round_half_down,
    generate_synthetic,
    load_csv,
    make_pairs,
    save_csv,
    split_queries,
)
from fairpair.errors import ParseError, ValidationError


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(
            tmp_path,
            "query_id,group,label,f0,f1\n"
            "q1,0,1,0.5,1.0\n"
            "q1,1,0,-0.25,2.0\n"
            "q1,0,0,3.0,4.5\n",
        )
        ds = load_csv(path, declared_K=2)
        assert len(ds.queries) == 1
        assert ds.d == 2
        q = ds.queries[0]
        assert q.query_id == "q1"
        assert list(q.labels) == [1, 0, 0]
        assert list(q.groups) == [0, 1, 0]
        np.testing.assert_array_equal(q.features[1], [-0.25, 2.0])

    def test_query_order_and_grouping(self, tmp_path):
        path = write(
            tmp_path,
            "query_id,group,label,f0\n"
            "b,0,1,1.0\n"
            "a,0,0,2.0\n"
            "b,0,0,3.0\n",
        )
        ds = load_csv(path, declared_K=1)
        assert [q.query_id for q in ds.queries] == ["b", "a"]
        assert len(ds.queries[0]) == 2

    def test_label_out_of_range(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\nq1,0,2,1.0\n")
        with pytest.raises(ValidationError, match="label"):
            load_csv(path, declared_K=1)

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\n")
        with pytest.raises(ValidationError, match="empty dataset"):
            load_csv(path, declared_K=1)

    def test_fully_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValidationError, match="empty dataset"):
            load_csv(path, declared_K=1)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\nq1,0,1,1.0\nq1,0,1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, declared_K=1)

    def test_non_numeric_feature_reports_line(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\nq1,0,1,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path, declared_K=1)

    def test_group_out_of_declared_range(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\nq1,2,1,1.0\n")
        with pytest.raises(ValidationError, match="group"):
            load_csv(path, declared_K=2)

    @pytest.mark.parametrize(
        "column, values, message",
        [
            ("group", [-1, 2**63], "line 2: group -1 outside"),
            ("group", [0, 2**63, -(2**53) - 1], "line 3: group 9223372036854775808 outside"),
            ("label", [1, 0, 2**64], "line 4: label 18446744073709551616 not in"),
        ],
    )
    def test_values_beyond_int64_reported_exactly(self, tmp_path, column, values, message):
        # One column holding a negative value and one beyond int64 used to
        # become float64, so the error named a rounded value or the wrong row.
        rows = [(v, 0) if column == "group" else (0, v) for v in values]
        body = "".join(f"q1,{g},{lab},1.0\n" for g, lab in rows)
        path = write(tmp_path, "query_id,group,label,f0\n" + body)
        with pytest.raises(ValidationError, match=message):
            load_csv(path, declared_K=2)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "qid,group,label,f0\nq1,0,1,1.0\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path, declared_K=1)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = write(tmp_path, "query_id,group,label,f0\nq1,0,1,inf\n")
        with pytest.raises(ValidationError, match="finite"):
            load_csv(path, declared_K=1)

    def test_save_load_round_trip_bit_exact(self, tmp_path, rng):
        ds = random_dataset(rng, n_queries=5, items_per_query=6, d=4, K=3)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, declared_K=3)
        assert back.d == ds.d and back.K == ds.K
        for qa, qb in zip(ds.queries, back.queries):
            assert qa.query_id == qb.query_id
            np.testing.assert_array_equal(qa.labels, qb.labels)
            np.testing.assert_array_equal(qa.groups, qb.groups)
            np.testing.assert_array_equal(qa.features, qb.features)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        # Any finite double (the strategy yields -0.0, subnormals and values
        # near ±1.8e308; the extremes are added explicitly), any query sizes.
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]
        )
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        d = data.draw(st.integers(1, 3))
        K = data.draw(st.integers(1, 3))
        ids = data.draw(
            st.lists(
                st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                        max_size=4),
                min_size=len(sizes), max_size=len(sizes), unique=True,
            )
        )
        queries = [
            (
                qid,
                data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                data.draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)),
                [data.draw(st.lists(finite, min_size=d, max_size=d)) for _ in range(n)],
            )
            for qid, n in zip(ids, sizes)
        ]
        ds = build_dataset(queries, d=d, K=K)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.csv"
            save_csv(ds, path)
            back = load_csv(path, declared_K=K)
        assert back.query_ids == ds.query_ids
        np.testing.assert_array_equal(back.offsets, ds.offsets)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.groups, ds.groups)
        assert back.features.shape == ds.features.shape
        np.testing.assert_array_equal(back.features.view(np.uint64), ds.features.view(np.uint64))

    def test_malformed_row_reported_before_out_of_range_value(self, tmp_path):
        # Rows are parsed first and checked for range in one pass afterwards.
        path = write(tmp_path, "query_id,group,label,f0\nq1,0,2,1.0\nq1,0,1,abc\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, declared_K=1)


class TestDatasetValidate:
    def test_duplicate_query_id(self):
        with pytest.raises(ValidationError, match="duplicate query_id 'a'"):
            build_dataset([("a", [1], [0], [[0.0]]), ("a", [0], [0], [[1.0]])], d=1, K=1)

    @pytest.mark.parametrize(
        "offsets, n_rows, d",
        [([0, 3], 4, 1), ([1, 4], 4, 1), ([0, 2, 1, 4], 4, 1), ([0, 4], 4, 0)],
        ids=["rows-past-offsets", "offsets-start-late", "offsets-decrease", "1-d-features"],
    )
    def test_inconsistent_columns(self, offsets, n_rows, d):
        features = np.zeros((n_rows, d)) if d else np.zeros(n_rows)
        ds = Dataset(
            [f"q{i}" for i in range(len(offsets) - 1)],
            np.array(offsets, dtype=np.int64),
            features,
            np.zeros(n_rows, dtype=np.int64),
            np.zeros(n_rows, dtype=np.int64),
            K=1,
        )
        with pytest.raises(ValidationError, match="offsets and columns"):
            ds.validate()

    def test_empty_query(self):
        with pytest.raises(ValidationError, match="query 'b' has no items"):
            build_dataset([("a", [1], [0], [[0.0]]), ("b", [], [], [])], d=1, K=1)

    @pytest.mark.parametrize(
        "label, group, feature, message",
        [
            (2, 0, 1.0, r"query 'b': label 2 not in \{0,1\}"),
            (1, 3, 1.0, r"query 'b': group 3 outside \[0, 2\)"),
            (1, -1, 1.0, r"query 'b': group -1 outside \[0, 2\)"),
            (1, 0, float("nan"), "query 'b': non-finite feature value"),
        ],
    )
    def test_bad_row_names_its_query(self, label, group, feature, message):
        queries = [
            ("a", [1, 0], [0, 1], [[0.0], [1.0]]),
            ("b", [0, label], [1, group], [[2.0], [feature]]),
        ]
        with pytest.raises(ValidationError, match=message):
            build_dataset(queries, d=1, K=2)

    def test_queries_are_views_of_the_columns(self, rng):
        ds = random_dataset(rng, n_queries=3, items_per_query=4)
        for qi, q in enumerate(ds.queries):
            rows = slice(ds.offsets[qi], ds.offsets[qi + 1])
            assert q.query_id == ds.query_ids[qi] and len(q) == 4
            assert np.shares_memory(q.features, ds.features)
            np.testing.assert_array_equal(q.labels, ds.labels[rows])
            np.testing.assert_array_equal(q.groups, ds.groups[rows])


class TestSplitQueries:
    @staticmethod
    def _ten_query_ds(rng):
        return random_dataset(rng, n_queries=10, items_per_query=4, d=2, K=2)

    def test_four_to_one_twice(self, rng):
        ds = self._ten_query_ds(rng)
        train, valid, test = split_queries(ds, 0.2, 0.2 * 0.8, seed=0)
        assert (len(train.queries), len(valid.queries), len(test.queries)) == (6, 2, 2)
        ids = [q.query_id for q in train.queries + valid.queries + test.queries]
        assert sorted(ids) == sorted(q.query_id for q in ds.queries)

    def test_determinism(self, rng):
        ds = self._ten_query_ds(rng)
        a = split_queries(ds, 0.2, 0.16, seed=99)
        b = split_queries(ds, 0.2, 0.16, seed=99)
        for sa, sb in zip(a, b):
            assert [q.query_id for q in sa.queries] == [q.query_id for q in sb.queries]

    def test_partition_property(self, rng):
        for trial in range(20):
            n = int(rng.integers(4, 30))
            ds = random_dataset(rng, n_queries=n, items_per_query=3, d=2, K=2)
            train, valid, test = split_queries(ds, 0.25, 0.15, seed=trial)
            parts = [
                {q.query_id for q in s.queries} for s in (train, valid, test)
            ]
            assert parts[0] | parts[1] | parts[2] == {q.query_id for q in ds.queries}
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=25),
        ratio_test=st.floats(0.0, 0.6),
        ratio_valid=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32),
    )
    def test_split_is_a_partition_of_the_queries(self, sizes, ratio_test, ratio_valid, seed):
        rng = np.random.default_rng(seed)
        ds = build_dataset(
            [query_spec(rng, f"q{qi}", n, 2, 3) for qi, n in enumerate(sizes)], d=2, K=3
        )
        n = len(sizes)
        n_test, n_valid = _round_half_down(ratio_test * n), _round_half_down(ratio_valid * n)
        n_train = n - n_test - n_valid
        if (ratio_test + ratio_valid >= 1 or (ratio_test > 0 and n_test == 0)
                or (ratio_valid > 0 and n_valid == 0) or n_train <= 0):
            with pytest.raises(ValidationError):
                split_queries(ds, ratio_test, ratio_valid, seed)
            return
        splits = split_queries(ds, ratio_test, ratio_valid, seed)
        assert [len(s.queries) for s in splits] == [n_train, n_valid, n_test]
        source = {q.query_id: q for q in ds.queries}
        seen = [q for s in splits for q in s.queries]
        # Each query id lands in exactly one split, with its rows' bits unchanged.
        assert sorted(q.query_id for q in seen) == sorted(source)
        for q in seen:
            want = source[q.query_id]
            for column in ("features", "labels", "groups"):
                got, ref = getattr(q, column), getattr(want, column)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_too_few_queries(self, rng):
        ds = random_dataset(rng, n_queries=2, items_per_query=3, d=2, K=2)
        with pytest.raises(ValidationError, match="too few queries"):
            split_queries(ds, 0.2, 0.16, seed=0)

    def test_invalid_ratios(self, rng):
        ds = self._ten_query_ds(rng)
        with pytest.raises(ValidationError):
            split_queries(ds, -0.1, 0.2, seed=0)
        with pytest.raises(ValidationError):
            split_queries(ds, 0.6, 0.4, seed=0)

    def test_zero_ratio_gives_empty_split(self, rng):
        ds = self._ten_query_ds(rng)
        train, valid, test = split_queries(ds, 0.2, 0.0, seed=0)
        assert len(valid.queries) == 0
        assert len(train.queries) == 8 and len(test.queries) == 2


def pair_keys(ps):
    """(query index, i, j) of every pair, in emitted order, with i and j the
    positions of the pair's two rows within their query; item i must be the
    positive one."""
    offsets, labels = ps.source.offsets, ps.source.labels
    query = np.searchsorted(offsets, ps.row_i, side="right") - 1
    assert np.array_equal(np.searchsorted(offsets, ps.row_j, side="right") - 1, query)
    assert np.all(labels[ps.row_i] == 1) and np.all(labels[ps.row_j] == 0)
    start = offsets[query]
    columns = (query, ps.row_i - start, ps.row_j - start)
    return list(zip(*(c.tolist() for c in columns)))


def nested_loop_arrays(ds):
    """Reference enumeration: one Python tuple per pair, copied row by row.

    Returns the PAIR_FIELDS and ARRAY_FIELDS columns by name."""
    pairs = []
    for qi, q in enumerate(ds.queries):
        labels = q.labels
        n = len(labels)
        for i in range(n):
            for j in range(n):
                if labels[i] > labels[j]:
                    pairs.append((qi, i, j))
    n = len(pairs)
    row_i, row_j = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    cell = np.empty(n, dtype=np.min_scalar_type(2 * ds.K**2 - 1))
    diff = np.empty((n, ds.d), dtype=np.float64)
    for t, (qi, i, j) in enumerate(pairs):
        q = ds.queries[qi]
        row_i[t], row_j[t] = ds.offsets[qi] + i, ds.offsets[qi] + j
        cell[t] = (q.groups[i] * ds.K + q.groups[j]) * 2 + 1
        diff[t] = q.features[i] - q.features[j]
    return {"row_i": row_i, "row_j": row_j, "cell": cell, "feat_diff": diff}


# The pair set's row columns, then its gathered arrays.
PAIR_FIELDS = ("row_i", "row_j")
ARRAY_FIELDS = ("cell",)


def query_spec(rng, qid, n_items, d, K, labels=None):
    if labels is None:
        labels = rng.integers(0, 2, size=n_items)
    return (qid, labels, rng.integers(0, K, size=n_items), rng.normal(size=(n_items, d)))


class TestMakePairs:
    def test_enumeration_example(self):
        ds = build_dataset(
            [("q1", [1, 0, 0], [0, 0, 0], [[0.0], [1.0], [2.0]])], d=1, K=1
        )
        got = {(i, j) for _, i, j in pair_keys(make_pairs(ds))}
        assert got == {(0, 1), (0, 2)}

    def test_uniform_labels_give_no_pairs(self):
        ds = build_dataset([("q1", [1, 1], [0, 0], [[0.0], [1.0]])], d=1, K=1)
        assert len(make_pairs(ds)) == 0

    def test_no_cross_query_pairs(self):
        ds = build_dataset(
            [
                ("q1", [1, 0], [0, 0], [[0.0], [1.0]]),
                ("q2", [1, 0], [0, 0], [[2.0], [3.0]]),
            ],
            d=1,
            K=1,
        )
        ps = make_pairs(ds)
        assert len(ps) == 2
        # Each pair's two rows lie in one query, and both queries give pairs.
        assert ps.row_i.tolist() == [0, 2] and ps.row_j.tolist() == [1, 3]
        # Each pair's feature difference comes from items of its own query.
        np.testing.assert_array_equal(pair_feature_diff(ps)[:, 0], [-1.0, -1.0])

    def test_antisymmetry_and_count(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n_queries=3, items_per_query=int(rng.integers(2, 9)))
            ps = make_pairs(ds)
            # Each discordant pair once: positive item first, no mirror.
            emitted = set(pair_keys(ps))
            for q, i, j in emitted:
                assert (q, j, i) not in emitted
            expected = 0
            for q in ds.queries:
                pos = int(q.labels.sum())
                expected += pos * (len(q) - pos)
            assert len(ps) == len(emitted) == expected

    def test_deterministic_ordering(self, rng):
        ds = random_dataset(rng, n_queries=3, items_per_query=5)
        keys = pair_keys(make_pairs(ds))
        assert keys == sorted(keys)

    def test_arrays_match_nested_loop_bytes(self, rng):
        # Random datasets mixing single-item, single-label and mixed queries.
        for trial in range(30):
            d = int(rng.integers(1, 5))
            K = int(rng.integers(1, 4))
            queries = []
            for qi in range(int(rng.integers(1, 7))):
                n_items = int(rng.integers(1, 9))
                kind = rng.integers(0, 3)
                labels = None if kind == 0 else np.full(n_items, kind - 1)
                queries.append(query_spec(rng, f"q{qi}", n_items, d, K, labels))
            ds = build_dataset(queries, d=d, K=K)
            self._assert_bytes_equal(make_pairs(ds), nested_loop_arrays(ds))

    def test_empty_split_arrays(self):
        # split_queries can leave a split with no queries at all.
        ds = build_dataset([], d=3, K=2)
        ps = make_pairs(ds)
        assert len(ps) == 0
        assert pair_feature_diff(ps).shape == (0, 3)
        self._assert_bytes_equal(ps, nested_loop_arrays(ds))

    def test_single_label_queries_give_empty_arrays(self, rng):
        ds = build_dataset(
            [query_spec(rng, "a", 4, 3, 2, [1] * 4), query_spec(rng, "b", 1, 3, 2, [0])],
            d=3,
            K=2,
        )
        ps = make_pairs(ds)
        assert len(ps) == 0
        assert pair_feature_diff(ps).shape == (0, 3)
        self._assert_bytes_equal(ps, nested_loop_arrays(ds))

    @staticmethod
    def _assert_bytes_equal(ps, expected):
        columns = [getattr(ps, name) for name in PAIR_FIELDS]
        columns += [getattr(ps.arrays, name) for name in ARRAY_FIELDS]
        columns.append(pair_feature_diff(ps))
        names = PAIR_FIELDS + ARRAY_FIELDS + ("feat_diff",)
        for name, got in zip(names, columns):
            want = expected[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("K", [1, 2, 11])
    def test_arrays_hold_nine_bytes_a_pair(self, rng, K):
        # A pair is its two int32 rows and a one-byte cell (K <= 11); its
        # mirror and the pair label are implied, not stored: 4.5 bytes an
        # ordered pair.
        ds = random_dataset(rng, n_queries=3, items_per_query=7, d=2, K=K)
        ps = make_pairs(ds)
        arr = ps.arrays
        held = [v for obj in (ps, arr) for v in vars(obj).values() if isinstance(v, np.ndarray)]
        per_pair = {id(v): v for v in held if v.ndim == 1 and v.size == len(ps)}
        assert all(v.ndim == 1 for v in held)
        assert sum(v.nbytes for v in per_pair.values()) == 9 * len(ps) > 0
        n_ordered = sum(2 * int(q.labels.sum()) * int(len(q) - q.labels.sum()) for q in ds.queries)
        assert 2 * len(ps) == n_ordered
        np.testing.assert_array_equal(arr.cell & 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=1, max_size=9), min_size=0, max_size=6
        )
    )
    def test_pair_properties(self, label_lists):
        queries = [
            (f"q{qi}", labels, [0] * len(labels), [[float(t)] for t in range(len(labels))])
            for qi, labels in enumerate(label_lists)
        ]
        ps = make_pairs(build_dataset(queries, d=1, K=1))
        keys = pair_keys(ps)
        expected = sum(sum(ls) * (len(ls) - sum(ls)) for ls in label_lists)
        assert len(ps) == len(keys) == expected
        emitted = set(keys)
        assert not any((q, j, i) in emitted for q, i, j in keys)
        assert keys == sorted(keys)


class TestGenerateSynthetic:
    def test_determinism_bit_identical(self):
        a, ta = generate_synthetic(6, 8, 3, 2, 0.7, seed=5)
        b, tb = generate_synthetic(6, 8, 3, 2, 0.7, seed=5)
        for qa, qb in zip(a.queries, b.queries):
            np.testing.assert_array_equal(qa.features, qb.features)
            np.testing.assert_array_equal(qa.labels, qb.labels)
            np.testing.assert_array_equal(qa.groups, qb.groups)
        for pa, pb in zip(ta.item_probs, tb.item_probs):
            np.testing.assert_array_equal(pa, pb)

    def test_seed_changes_output(self):
        a, _ = generate_synthetic(4, 8, 3, 2, 0.7, seed=1)
        b, _ = generate_synthetic(4, 8, 3, 2, 0.7, seed=2)
        assert not np.array_equal(a.queries[0].features, b.queries[0].features)

    def test_zero_bias_matches_truth_per_group(self):
        # With no bias, observed labels are draws from the true item
        # probabilities, so each group's empirical rate tracks its truth.
        ds, truth = generate_synthetic(400, 30, 5, 2, bias_strength=0.0, seed=11)
        labels = ds.labels
        groups = ds.groups
        probs = np.concatenate(truth.item_probs)
        assert labels.size >= 10_000
        for g in range(2):
            sel = groups == g
            assert abs(labels[sel].mean() - probs[sel].mean()) < 0.03

    def test_positive_bias_depresses_nonzero_groups(self):
        # Monte-Carlo estimate over >= 10^4 items: group 0 keeps its rate,
        # the others lose roughly sigmoid(q) - sigmoid(q - bias).
        ds, truth = generate_synthetic(400, 30, 5, 3, bias_strength=1.0, seed=11)
        labels = ds.labels
        groups = ds.groups
        assert labels.size >= 10_000
        rate0 = labels[groups == 0].mean()
        for g in (1, 2):
            assert rate0 > labels[groups == g].mean() + 0.05

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            generate_synthetic(0, 5, 2, 2, 0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(5, 0, 2, 2, 0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(5, 5, 0, 2, 0.0, seed=0)
