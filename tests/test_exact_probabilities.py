"""Violations are exact expectations: expected_bias and point_expected_bias
sum the predicted probabilities as they are, with no clamp.

Against the clamped measurements they replaced (``clamped_measures``), a
violation is bit-equal while every probability lies in
[PROB_EPS, 1 - PROB_EPS].  Otherwise each clamped probability moved by less
than PROB_EPS, and an entry, a table-weighted mean of the probabilities,
by at most PROB_EPS times the largest |table entry|, plus rounding.
"""

import numpy as np
import pytest

import clamped_measures
from conftest import build_dataset, random_dataset
from fairpair.constraints import (
    ConstraintKind,
    compute_group_stats,
    compute_point_stats,
    pair_constraint_table,
    point_constraint_table,
)
from fairpair.data import make_pairs
from fairpair.model import stable_sigmoid
from fairpair.reweight import expected_bias, point_expected_bias
from loss_oracle import PROB_EPS

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]
POINT_KINDS = [k for k in ConstraintKind if k.is_pointwise]
# 30 is the scale of test_unordered_pairs' saturated models.
SCALES = (0.1, 2.0, 30.0)


def clamped(p):
    return bool(((p < PROB_EPS) | (p > 1.0 - PROB_EPS)).any())


def assert_within_clamp(got, want, table, any_clamped):
    got, want = got.values, want.values
    if not any_clamped:
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    bound = PROB_EPS * np.abs(table).max() + 4 * np.spacing(np.abs(want).max())
    assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_pair_violation_within_clamp_of_oracle(rng, kind, K):
    seen_clamped = False
    for _ in range(3):
        ps = make_pairs(random_dataset(rng, n_queries=6, items_per_query=20, d=3, K=K))
        stats = compute_group_stats(ps)
        table = pair_constraint_table(kind, stats)
        for scale in SCALES:
            s = ps.source.features @ rng.normal(scale=scale, size=ps.source.d)
            any_clamped = clamped(stable_sigmoid(s[ps.row_i] - s[ps.row_j]))
            seen_clamped |= any_clamped
            got = expected_bias(s, ps, stats, kind)
            want = clamped_measures.expected_bias(s, ps, stats, kind)
            np.testing.assert_array_equal(got.defined, want.defined)
            assert_within_clamp(got, want, table, any_clamped)
    assert seen_clamped


@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", POINT_KINDS, ids=lambda k: k.value)
def test_point_violation_within_clamp_of_oracle(rng, kind, K):
    seen_clamped = False
    for _ in range(3):
        ds = random_dataset(rng, n_queries=6, items_per_query=20, d=3, K=K)
        stats = compute_point_stats(ds)
        table = point_constraint_table(kind, stats)
        for scale in SCALES:
            s = ds.features @ rng.normal(scale=scale, size=ds.d)
            any_clamped = clamped(stable_sigmoid(s))
            seen_clamped |= any_clamped
            got = point_expected_bias(s, ds, stats, kind)
            want = clamped_measures.point_expected_bias(s, ds, stats, kind)
            np.testing.assert_array_equal(got.defined, want.defined)
            assert_within_clamp(got, want, table, any_clamped)
    assert seen_clamped


def test_saturated_pair_violation_is_exact():
    # One pair: a group-0 positive scoring 40 against a group-1 negative
    # scoring 0.  sigmoid(40) rounds to 1, so the pair is ordered with
    # certainty; the clamp made it 1 - 1e-12, and the entries +-0.499999999999.
    ds = build_dataset([("q", [1, 0], [0, 1], [[0.0], [0.0]])], d=1, K=2)
    ps = make_pairs(ds)
    kind = ConstraintKind.PAIR_STATISTICAL
    delta = expected_bias(np.array([40.0, 0.0]), ps, compute_group_stats(ps), kind)
    np.testing.assert_array_equal(delta.values, [[0.0, 0.5], [-0.5, 0.0]])
