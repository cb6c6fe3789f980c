"""Measurements take one score per item: the check each of them runs on its
scores, and a differential test against the model-taking forms they
replaced (``model_measures``)."""

import re

import numpy as np
import pytest

import model_measures as old
from conftest import random_dataset
from constraint_oracle import pair_constraint_table, table_algebra
from fairpair.constraints import ConstraintKind, compute_group_stats
from fairpair.data import make_pairs
from fairpair.errors import ValidationError
from fairpair.evaluation import auc, evaluate
from fairpair.model import LinearRankingModel, check_scores, score_matrix
from fairpair.reweight import expected_bias, point_expected_bias

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]
STAT = ConstraintKind.PAIR_STATISTICAL
MEASUREMENTS = ["auc", "expected_bias", "point_expected_bias", "evaluate"]


def measurement(name, ds):
    """The named measurement of ds, as a function of its item scores."""
    ps = make_pairs(ds)
    return {
        "auc": lambda s: auc(s, ds),
        "expected_bias": lambda s: expected_bias(s, ps, STAT),
        "point_expected_bias": lambda s: point_expected_bias(s, ds, ConstraintKind.POINT_STATISTICAL),
        "evaluate": lambda s: evaluate(s, ps, STAT),
    }[name]


@pytest.mark.parametrize("name", MEASUREMENTS)
class TestScoresChecked:
    def test_wrong_length(self, rng, name):
        ds = random_dataset(rng)
        measure = measurement(name, ds)
        for shape in [(ds.n_items - 1,), (ds.n_items + 1,), (0,), (ds.n_items, 1)]:
            want = f"need one score per item: got {shape} for {ds.n_items} items"
            with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                measure(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite(self, rng, name, bad):
        ds = random_dataset(rng)
        scores = rng.normal(size=ds.n_items)
        scores[3] = bad
        with pytest.raises(ValidationError, match="^item scores must be finite$"):
            measurement(name, ds)(scores)


def test_check_scores_returns_float64():
    got = check_scores([1, 2, 3], 3)
    assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0, 3.0]


def setup_data(rng, K):
    ds = random_dataset(rng, n_queries=6, items_per_query=20, d=3, K=K)
    ps = make_pairs(ds)
    return ds, ps, compute_group_stats(ps)


@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_zero_bias_scores_match_the_model_forms_bit_for_bit(rng, monkeypatch, kind, K):
    # A pairwise model's b is 0.0, so score_matrix's X @ w + b has the bits
    # of X @ w but for the sign of a zero, which no sigmoid sees.  The model
    # forms apply the constraint table, so the scores' forms do too.
    table_algebra(monkeypatch)
    ds, ps, stats = setup_data(rng, K)
    for scale in (0.1, 2.0, 30.0):
        model = LinearRankingModel(rng.normal(scale=scale, size=ds.d), 0.0)
        scores = score_matrix(model, ds.features)
        want = old.expected_bias(model, ps, stats, kind)
        got = expected_bias(scores, ps, kind)
        assert got.values.tobytes() == want.values.tobytes()
        np.testing.assert_array_equal(got.defined, want.defined)
        want_auc = old.auc(model, ds)
        assert auc(scores, ds) == want_auc
        report = evaluate(scores, ps, kind)
        assert report.delta.values.tobytes() == want.values.tobytes()
        assert (report.auc, report.per_query_auc) == want_auc


@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_biased_scores_match_the_model_forms_within_rounding(rng, kind, K):
    # expected_bias once differenced X @ w and now differences X @ w + b.
    # Rounding s + b moves each score by at most half an ulp of |s + b|, so a
    # pair's z by about 2 ulp of the largest score, its probability by a
    # quarter of that, and a violation by that times the largest table entry.
    # The AUC ranks the same scores as before, so it keeps every bit.
    ds, ps, stats = setup_data(rng, K)
    table = np.abs(pair_constraint_table(kind, stats)).max()
    for b in (-3.0, 0.5, 40.0):
        model = LinearRankingModel(rng.normal(scale=2.0, size=ds.d), b)
        scores = score_matrix(model, ds.features)
        want = old.expected_bias(model, ps, stats, kind).values
        got = expected_bias(scores, ps, kind).values
        bound = 2.0**-52 * (np.abs(scores).max() + 1.0) * table
        assert np.abs(got - want).max() <= bound
        assert auc(scores, ds) == old.auc(model, ds)
