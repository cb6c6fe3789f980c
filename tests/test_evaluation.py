"""Tests for AUC, the fairness score, and evaluation reports."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, random_dataset
from fairpair.constraints import (
    ConstraintKind,
    compute_group_stats,
    compute_point_stats,
    pair_constraint_mask,
    pairs_and_stats,
)
from fairpair.data import generate_synthetic, make_pairs
from fairpair.errors import ValidationError
from fairpair.evaluation import auc, evaluate, fairness_score
from fairpair.model import LinearRankingModel, score_matrix
from fairpair.reweight import DeltaMatrix, point_expected_bias

STAT = ConstraintKind.PAIR_STATISTICAL


def brute_force_auc(scores, labels):
    """Oracle: count ordered discordant pairs with half credit for ties."""
    total = 0.0
    count = 0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] > labels[j]:
                count += 1
                if scores[i] > scores[j]:
                    total += 1.0
                elif scores[i] == scores[j]:
                    total += 0.5
    return total / count


def old_auc(model, ds):
    """The per-query form auc replaced: one np.unique per query."""
    per_query = []
    for q in ds.queries:
        labels = q.labels
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == labels.size:
            continue
        scores = score_matrix(model, q.features)
        n_neg = labels.size - n_pos
        _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
        ends = np.cumsum(counts)
        midranks = (ends - counts + 1 + ends) / 2.0
        pos_rank_sum = float(midranks[inverse][labels == 1].sum())
        per_query.append((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(per_query)), per_query


class TestAuc:
    def test_perfect_ranking(self):
        ds = build_dataset(
            [("q", [1, 1, 0, 0], [0] * 4, [[3.0], [2.0], [1.0], [0.0]])], d=1, K=1
        )
        model = LinearRankingModel(np.asarray([1.0]), 0.0)
        mean, per_query = auc(score_matrix(model, ds.features), ds)
        assert mean == 1.0 and per_query == [1.0]

    def test_reversed_ranking(self):
        ds = build_dataset(
            [("q", [1, 1, 0, 0], [0] * 4, [[0.0], [1.0], [2.0], [3.0]])], d=1, K=1
        )
        mean, _ = auc(score_matrix(LinearRankingModel(np.asarray([1.0]), 0.0), ds.features), ds)
        assert mean == 0.0

    def test_constant_scores(self, rng):
        ds = random_dataset(rng, n_queries=3, items_per_query=6)
        mean, per_query = auc(score_matrix(LinearRankingModel.zeros(ds.d), ds.features), ds)
        assert mean == 0.5
        assert per_query == [0.5, 0.5, 0.5]

    def test_brute_force_oracle(self, rng):
        # 50 random queries of up to 20 items, small feature grid so that
        # exact score ties actually happen.
        for trial in range(50):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            feats = rng.integers(-2, 3, size=(n, 2)).astype(float)
            ds = build_dataset([("q", labels, [0] * n, feats)], d=2, K=1)
            model = LinearRankingModel(rng.integers(-2, 3, size=2).astype(float), 0.0)
            mean, _ = auc(score_matrix(model, ds.features), ds)
            scores = ds.queries[0].features @ model.w
            assert mean == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=2, max_size=25)
        .filter(lambda rows: 0 < sum(label for _, label in rows) < len(rows))
    )
    def test_midrank_equals_pair_counting(self, rows):
        # Integer scores from a small range, so ties are common.
        scores = [float(s) for s, _ in rows]
        labels = [label for _, label in rows]
        ds = build_dataset([("q", labels, [0] * len(rows), [[s] for s in scores])], d=1, K=1)
        mean, _ = auc(score_matrix(LinearRankingModel(np.asarray([1.0]), 0.0), ds.features), ds)
        assert mean == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_matches_per_query_unique_bits(self, rng):
        # Small integer features and weights make exact score ties common;
        # queries of one item and of one label are mixed in.
        for trial in range(200):
            d = int(rng.integers(1, 4))
            queries = []
            for qi in range(int(rng.integers(1, 8))):
                n = int(rng.integers(1, 12))
                kind = rng.integers(0, 4)
                labels = rng.integers(0, 2, size=n) if kind < 2 else np.full(n, kind - 2)
                feats = rng.integers(-2, 3, size=(n, d)).astype(float)
                queries.append((f"q{qi}", labels, [0] * n, feats))
            queries.append(("mixed", [1, 0], [0, 0], np.zeros((2, d))))
            ds = build_dataset(queries, d=d, K=1)
            model = LinearRankingModel(rng.integers(-2, 3, size=d).astype(float), 0.5)
            assert auc(score_matrix(model, ds.features), ds) == old_auc(model, ds)
        # Long queries of integer features: runs of hundreds of tied scores,
        # which an unstable sort reorders within each run.
        for trial in range(20):
            queries = []
            for qi in range(int(rng.integers(1, 6))):
                n = int(rng.integers(200, 2000))
                feats = rng.integers(-1, 2, size=(n, 2)).astype(float)
                queries.append((f"q{qi}", rng.integers(0, 2, size=n), [0] * n, feats))
            ds = build_dataset(queries, d=2, K=1)
            model = LinearRankingModel(rng.integers(-2, 3, size=2).astype(float), 0.0)
            assert auc(score_matrix(model, ds.features), ds) == old_auc(model, ds)

    def test_matches_per_query_unique_on_synthetic(self, rng):
        ds, _ = generate_synthetic(60, 30, 5, 3, bias_strength=1.0, seed=3)
        for _ in range(5):
            model = LinearRankingModel(rng.normal(size=5), float(rng.normal()))
            assert auc(score_matrix(model, ds.features), ds) == old_auc(model, ds)

    def test_pair_free_queries_excluded(self):
        ds = build_dataset(
            [
                ("q1", [1, 0], [0, 0], [[1.0], [0.0]]),
                ("q2", [1, 1], [0, 0], [[1.0], [0.0]]),
            ],
            d=1,
            K=1,
        )
        model = LinearRankingModel(np.asarray([1.0]), 0.0)
        mean, per_query = auc(score_matrix(model, ds.features), ds)
        assert len(per_query) == 1
        assert mean == 1.0

    def test_undefined_when_no_discordant_pairs(self):
        ds = build_dataset([("q", [1, 1], [0, 0], [[1.0], [0.0]])], d=1, K=1)
        with pytest.raises(ValidationError, match="AUC undefined"):
            auc(score_matrix(LinearRankingModel.zeros(1), ds.features), ds)

    def test_negated_scores_complement(self, rng):
        # Tie-free data: AUC(m) + AUC(-m) = 1.
        for _ in range(10):
            ds = random_dataset(rng, n_queries=4, items_per_query=7)
            w = rng.normal(size=ds.d)
            a1, _ = auc(score_matrix(LinearRankingModel(w, 0.0), ds.features), ds)
            a2, _ = auc(score_matrix(LinearRankingModel(-w, 0.0), ds.features), ds)
            assert a1 + a2 == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_positive_affine_scores(self, rng):
        ds = random_dataset(rng, n_queries=3, items_per_query=8)
        w = rng.normal(size=ds.d)
        a1, _ = auc(score_matrix(LinearRankingModel(w, 0.0), ds.features), ds)
        a2, _ = auc(score_matrix(LinearRankingModel(2.5 * w, 7.0), ds.features), ds)
        assert a1 == a2


class TestFairnessScore:
    @staticmethod
    def full_mask(K):
        return ~np.eye(K, dtype=bool)

    def test_all_zero_is_fair(self):
        delta = DeltaMatrix(np.zeros((2, 2)), self.full_mask(2))
        assert fairness_score(delta) == 1.0

    def test_substitution_example(self):
        values = np.zeros((2, 2))
        values[0, 1] = 0.2
        values[1, 0] = -0.1
        delta = DeltaMatrix(values, self.full_mask(2))
        assert fairness_score(delta) == pytest.approx(0.7, abs=1e-15)

    def test_never_exceeds_one(self, rng):
        for _ in range(50):
            K = int(rng.integers(2, 5))
            values = rng.normal(size=(K, K)) * self.full_mask(K)
            assert fairness_score(DeltaMatrix(values, self.full_mask(K))) <= 1.0

    def test_equals_one_iff_symmetric(self, rng):
        K = 3
        sym = rng.normal(size=(K, K))
        sym = (sym + sym.T) / 2 * self.full_mask(K)
        assert fairness_score(DeltaMatrix(sym, self.full_mask(K))) == 1.0
        asym = sym.copy()
        asym[0, 1] += 0.3
        assert fairness_score(DeltaMatrix(asym, self.full_mask(K))) < 1.0

    def test_no_defined_entries(self):
        delta = DeltaMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        assert fairness_score(delta) == 1.0

    def test_matches_entry_loop(self, rng):
        # Reference: the scan over defined entries that the vector form replaced.
        def loop_score(delta):
            worst = 0.0
            K = delta.values.shape[0]
            for k in range(K):
                for l in range(K):
                    if delta.defined[k, l]:
                        worst = max(worst, float(delta.values[k, l] - delta.values[l, k]))
            return 1.0 - worst

        for trial in range(200):
            K = int(rng.integers(1, 9))
            values = rng.normal(scale=0.1, size=(K, K))
            # Every 4th trial has no defined entry at all.
            defined = rng.random((K, K)) < (0.0 if trial % 4 == 0 else 0.7)
            delta = DeltaMatrix(values, defined)
            assert fairness_score(delta) == loop_score(delta)

    def test_rejects_a_violation_that_is_not_square(self):
        # A pointwise violation is one entry per group, and values - values.T
        # of a (K,) vector is 0, so it scored 1.0 whatever the violation: here
        # it did so for δ = [-0.069, 0.324, -0.252].
        ds, _ = generate_synthetic(20, 20, d=3, K=3, bias_strength=1.0, seed=0)
        stats = compute_point_stats(ds)
        scores = score_matrix(LinearRankingModel(np.ones(ds.d)), ds.features)
        delta = point_expected_bias(scores, ds, stats, ConstraintKind.POINT_STATISTICAL)
        assert delta.values.shape == (3,) and np.abs(delta.values).max() > 0.01
        with pytest.raises(ValidationError, match=r"needs a \(K, K\) violation, got \(3,\)"):
            fairness_score(delta)
        for shape in ((2, 3), (2, 2, 2)):
            with pytest.raises(ValidationError, match="needs a"):
                fairness_score(DeltaMatrix(np.zeros(shape), np.ones(shape, dtype=bool)))


class TestEvaluate:
    def test_zero_model_is_fair_for_statistical(self):
        ds, _ = generate_synthetic(10, 12, 3, 2, bias_strength=1.0, seed=4)
        report = evaluate(np.zeros(ds.n_items), *pairs_and_stats(ds, "dataset"), STAT)
        assert report.fairness == pytest.approx(1.0, abs=1e-9)
        assert report.auc == 0.5

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n_queries=4, items_per_query=6)
        model = LinearRankingModel(rng.normal(size=ds.d), 0.1)
        r1 = evaluate(score_matrix(model, ds.features), *pairs_and_stats(ds, "dataset"), STAT)
        r2 = evaluate(score_matrix(model, ds.features), *pairs_and_stats(ds, "dataset"), STAT)
        assert r1.auc == r2.auc and r1.fairness == r2.fairness
        np.testing.assert_array_equal(r1.delta.values, r2.delta.values)

    def test_three_query_hand_computed_report(self):
        # Every field recomputed independently with explicit loops.
        ds = build_dataset(
            [
                ("q1", [1, 0], [0, 1], [[1.0], [0.0]]),
                ("q2", [1, 0], [1, 0], [[0.0], [2.0]]),
                ("q3", [1, 0, 0], [0, 1, 0], [[1.5], [1.0], [-1.0]]),
            ],
            d=1,
            K=2,
        )
        model = LinearRankingModel(np.asarray([1.0]), 0.0)
        report = evaluate(score_matrix(model, ds.features), *pairs_and_stats(ds, "dataset"), STAT)

        per_query = []
        for q in ds.queries:
            scores = [f[0] for f in q.features]
            per_query.append(brute_force_auc(scores, list(q.labels)))
        assert report.per_query_auc == pytest.approx(per_query, abs=1e-15)
        assert report.auc == pytest.approx(sum(per_query) / 3, abs=1e-15)
        assert report.n_queries_evaluated == 3

        ps = make_pairs(ds)
        stats = compute_group_stats(ps)
        mask = pair_constraint_mask(STAT, stats)
        expected_delta = np.zeros((2, 2))
        for k in range(2):
            for l in range(2):
                if not mask[k, l]:
                    continue
                # Over the ordered pairs: each pair in both orientations.
                acc = 0.0
                for a, b in zip(ps.row_i, ps.row_j):
                    for i, j in ((a, b), (b, a)):
                        z = ds.features[i][0] - ds.features[j][0]
                        l_hat = 1.0 / (1.0 + math.exp(-z))
                        member = ds.groups[i] == k and ds.groups[j] == l
                        acc += l_hat * ((1.0 if member else 0.0) / stats.pair_frac[k, l] - 1.0)
                expected_delta[k, l] = acc / (2 * len(ps))
        np.testing.assert_allclose(report.delta.values, expected_delta, atol=1e-12)

        worst = max(
            0.0,
            expected_delta[0, 1] - expected_delta[1, 0],
            expected_delta[1, 0] - expected_delta[0, 1],
        )
        assert report.fairness == pytest.approx(1.0 - worst, abs=1e-12)

    def test_scores_length_must_match(self, rng):
        ds = random_dataset(rng, d=4)
        ps, stats = pairs_and_stats(ds, "dataset")
        with pytest.raises(ValidationError, match="need one score per item"):
            evaluate(np.zeros(ds.n_items - 1), ps, stats, STAT)

    def test_requires_pairwise_kind(self, rng):
        ds = random_dataset(rng)
        ps, stats = pairs_and_stats(ds, "dataset")
        with pytest.raises(ValidationError):
            evaluate(np.zeros(ds.n_items), ps, stats, ConstraintKind.POINT_STATISTICAL)

    def test_report_json_round_trip(self, tmp_path, rng):
        ds = random_dataset(rng, n_queries=3, items_per_query=6)
        model = LinearRankingModel(rng.normal(size=ds.d), 0.0)
        report = evaluate(score_matrix(model, ds.features), *pairs_and_stats(ds, "dataset"), STAT)
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "auc",
            "fairness",
            "delta",
            "defined_mask",
            "per_query_auc",
            "n_queries_evaluated",
            "constraint_kind",
        }
        assert doc["auc"] == report.auc
        assert doc["constraint_kind"] == "statistical"
        assert len(doc["delta"]) == 4
