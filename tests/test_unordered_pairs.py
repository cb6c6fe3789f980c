"""Differential tests: the pair set of make_pairs against the ordered pairs.

make_pairs keeps each discordant pair once, positive item first, and the
library reads its mirror from the cell.  On the two-orientation oracle
(``ordered_pairs``), group statistics must be bit-equal, violations and
losses equal to 1e-12 relative, and a pair's weight must be the mean of its
two ordered pairs' weights, bit for bit.
"""

import numpy as np
import pytest

from conftest import random_dataset
from fairpair.constraints import ConstraintKind, compute_group_stats
from fairpair.data import make_pairs
from fairpair.model import LinearRankingModel, score_matrix
from fairpair.reweight import Coefficients, expected_bias, pair_weights
from loss_oracle import weighted_loss
from ordered_pairs import (
    fold,
    ordered_expected_bias,
    ordered_feature_diff,
    ordered_group_stats,
    ordered_pairs,
    ordered_weighted_loss,
    ordered_weights,
)

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_relative(got, want, rtol=1e-12):
    """Each entry within rtol of the largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("K", [2, 3, 8, 16])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
class TestMatchesOrderedPairs:
    @staticmethod
    def setup_data(rng, K):
        # K >= 8 on 6x20 items leaves some group pairs empty, so masks vary;
        # K=16 holds the largest one-byte cell ids.
        ps = make_pairs(random_dataset(rng, n_queries=6, items_per_query=20, d=3, K=K))
        return ps, ordered_pairs(ps), compute_group_stats(ps)

    def test_group_stats_bit_equal(self, rng, kind, K):
        ps, op, stats = self.setup_data(rng, K)
        want = ordered_group_stats(op)
        for name in ("counts", "n", "pair_frac", "pos_pair_frac", "pos_frac"):
            assert_same_bits(getattr(stats, name), getattr(want, name))

    def test_expected_bias_within_1e12(self, rng, kind, K):
        ps, op, stats = self.setup_data(rng, K)
        for scale in (0.1, 2.0, 30.0):
            model = LinearRankingModel(rng.normal(scale=scale, size=ps.source.d), 0.0)
            got = expected_bias(score_matrix(model, ps.source.features), ps, kind).values
            assert_relative(got, ordered_expected_bias(model, op, stats, kind))

    def test_weighted_loss_within_1e12(self, rng, kind, K):
        # Away from the probability clamp: the two orientations clamp at
        # 1e-12 and at 1 - (1 - 1e-12), whose losses differ by 2.2e-5.
        ps, op, stats = self.setup_data(rng, K)
        coeffs = Coefficients(rng.normal(scale=0.1, size=(K, K)), kind)
        for scale in (0.1, 2.0):
            model = LinearRankingModel(rng.normal(scale=scale, size=ps.source.d), 0.0)
            assert np.abs(ordered_feature_diff(op) @ model.w).max() < 27.0
            random = rng.uniform(0.05, 3.0, size=len(op))
            for ordered in (random, ordered_weights(coeffs, stats, op)):
                got = weighted_loss(model, ps, fold(ordered, op))
                assert_relative(got, ordered_weighted_loss(model, op, ordered))

    def test_weight_is_mean_of_ordered_weights(self, rng, kind, K):
        ps, op, stats = self.setup_data(rng, K)
        for _ in range(5):
            values = rng.normal(scale=0.1, size=(K, K))
            values[rng.random((K, K)) < 0.2] = 0.0
            coeffs = Coefficients(values, kind)
            for form in ("general", "indicator"):
                got = pair_weights(coeffs, ps, form)
                assert_same_bits(got, fold(ordered_weights(coeffs, stats, op, form), op))
