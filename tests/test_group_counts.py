"""Group statistics as per-cell counts against the fraction layout they replaced.

``constraints.GroupStats`` holds (K, K, 2) ordered-pair counts or (K, 2)
item counts and reads its fractions off them; ``constraint_oracle`` keeps
the builders that stored the fractions, with the pair and item fields side
by side.  Every fraction is an integer count over the same n, so the two
agree bit for bit.  The one exception is the item label-1 total: the old
layout summed the per-group fractions, the new one divides the count sum,
and the two round differently in about a quarter of draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from constraint_oracle import (
    fraction_group_stats,
    fraction_pair_mask,
    fraction_point_mask,
    fraction_point_stats,
)
from fairpair.constraints import (
    ConstraintKind,
    compute_group_stats,
    compute_point_stats,
    constraint_bias,
    constraint_exponents,
    pair_constraint_mask,
    point_constraint_mask,
)
from fairpair.data import Dataset, make_pairs
from fairpair.errors import ValidationError

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]
POINT_KINDS = [k for k in ConstraintKind if k.is_pointwise]


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def drawn_dataset(rng, K, starve):
    """A small random dataset: with K above a few groups most cells are
    empty; ``starve`` gives the last group no positive item."""
    ds = random_dataset(rng, n_queries=int(rng.integers(1, 5)),
                        items_per_query=int(rng.integers(2, 16)), d=1, K=K)
    if starve:
        labels = np.where(ds.groups == K - 1, 0, ds.labels)
        ds = Dataset(ds.query_ids, ds.offsets, ds.features, labels, ds.groups, K)
    return ds


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 16), starve=st.booleans())
def test_counts_match_the_fraction_builders(seed, K, starve):
    ds = drawn_dataset(np.random.default_rng(seed), K, starve)

    items, want = compute_point_stats(ds), fraction_point_stats(ds)
    assert items.counts.shape == (K, 2) and items.n == ds.n_items
    assert_same_bits(items.pair_frac, want.item_frac)
    assert_same_bits(items.pos_pair_frac, want.pos_item_frac)
    # The count sum over n rounds once, by at most half an ulp of the total;
    # the old total rounded each of K fractions and K - 1 partial sums, each
    # by at most half an ulp of the total.  So the two differ by at most K
    # ulp (3 at K=13 in 4000 seeded draws; 1 ulp is too tight from K=6 on).
    assert abs(items.pos_frac - want.pos_item_total) <= K * np.spacing(want.pos_item_total)
    for kind in POINT_KINDS:
        np.testing.assert_array_equal(point_constraint_mask(kind, items), fraction_point_mask(kind, want))

    ps = make_pairs(ds)
    if not len(ps):
        return
    stats, want = compute_group_stats(ps), fraction_group_stats(ps)
    assert stats.counts.shape == (K, K, 2) and stats.n == 2 * len(ps)
    assert_same_bits(stats.pair_frac, want.pair_frac)
    assert_same_bits(stats.pos_pair_frac, want.pos_pair_frac)
    assert_same_bits(stats.pos_frac, want.pos_frac)
    for kind in PAIR_KINDS:
        np.testing.assert_array_equal(pair_constraint_mask(kind, stats), fraction_pair_mask(kind, want))


class TestStatisticsFitTheKind:
    """Item statistics for a pair kind, or pair statistics for a point kind,
    are a ValidationError in the masks and closed forms, which take
    statistics alone; every measurement and weighting reads the statistics
    of the pairs or items it is handed.  Unchecked, item statistics with a
    pair kind reported every entry undefined and fairness 1.0."""

    @pytest.fixture
    def data(self, rng):
        ds = random_dataset(rng, n_queries=4, items_per_query=8, K=3)
        return compute_group_stats(make_pairs(ds)), compute_point_stats(ds)

    @pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
    def test_pair_kind_rejects_item_statistics(self, data, kind):
        _, items = data
        with pytest.raises(ValidationError, match=r"needs pair statistics, got counts \(3, 2\)"):
            pair_constraint_mask(kind, items)
        with pytest.raises(ValidationError, match="needs pair statistics"):
            constraint_bias(kind, items, np.ones((3, 2)), 24)
        with pytest.raises(ValidationError, match="needs pair statistics"):
            constraint_exponents(kind, items, np.zeros((3, 3)))

    @pytest.mark.parametrize("kind", POINT_KINDS, ids=lambda k: k.value)
    def test_point_kind_rejects_pair_statistics(self, data, kind):
        stats, _ = data
        with pytest.raises(ValidationError, match=r"needs item statistics, got counts \(3, 3, 2\)"):
            point_constraint_mask(kind, stats)
        with pytest.raises(ValidationError, match="needs item statistics"):
            constraint_bias(kind, stats, np.ones((3, 3, 2)), 24)
