"""The closed-form constraint algebra against the tables it replaced.

constraints.constraint_bias and constraints.constraint_exponents read each
entry's own cells and one total; constraint_oracle keeps the (K, K, 2K²)
and (K, 2K) tables that held every entry's constraint at every cell, and
the sums over their rows.  Both sides sum the same terms in another order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from constraint_oracle import (
    pair_constraint_table,
    point_constraint_table,
    table_bias,
    table_cell_exponents,
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

# Each side rounds its own sums of the same terms: an entry's own cells
# over its denominator, and the total.  The table also rounds the
# difference of the two reciprocals before it multiplies, so the sides
# differ by ulps of the larger term, not of a result that may cancel to
# near 0.  Against that scale the worst of 8000 seeded draws like these (K
# from 1 to 16, all six kinds) was 10 ulp; 32 leaves room for draws
# hypothesis finds, and a wrong formula is off by a whole term.
TOL_ULP = 32


def term_scale(kind, stats, x):
    """The largest term an entry combines: the entry's part of x over its
    denominator, or x's sum over the total.  x is entry-shaped, cell sums
    or |coefficients|; a marginal entry's part is its row's."""
    if kind is ConstraintKind.PAIR_STATISTICAL:
        denom, total = stats.pair_frac, 1.0
    elif kind is ConstraintKind.POINT_STATISTICAL:
        denom, total = stats.item_frac, 1.0
    elif kind is ConstraintKind.POINT_EQUAL_OPPORTUNITY:
        denom, total = stats.pos_item_frac, stats.pos_item_total
    else:
        denom, total = stats.pos_pair_frac, stats.pos_frac
    if kind is ConstraintKind.PAIR_MARGINAL:
        x, denom = x.sum(axis=1), denom.sum(axis=1)
    own = np.divide(x, denom, out=np.zeros(x.shape), where=denom > 0)
    return own.max() + (x.sum() / total if total else 0.0)


def drawn_stats(rng, K, kind, starve):
    """Statistics of a small random dataset: with K above a few groups, most
    group pairs hold no pair, so their denominators are 0.  ``starve`` gives
    the last group no positive item, zeroing its row of pos_pair_frac and
    its pos_item_frac."""
    ds = random_dataset(rng, n_queries=int(rng.integers(1, 5)),
                        items_per_query=int(rng.integers(2, 16)), d=1, K=K)
    if starve:
        labels = np.where(ds.groups == K - 1, 0, ds.labels)
        ds = Dataset(ds.query_ids, ds.offsets, ds.features, labels, ds.groups, K)
    if kind.is_pointwise:
        stats = compute_point_stats(ds)
        return stats, point_constraint_mask(kind, stats), point_constraint_table(kind, stats), ds.n_items
    ps = make_pairs(ds)
    if not len(ps):
        return None
    stats = compute_group_stats(ps)
    return stats, pair_constraint_mask(kind, stats), pair_constraint_table(kind, stats), 2 * len(ps)


def assert_close(got, want, scale):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL_ULP * np.spacing(scale))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 16),
    kind=st.sampled_from(list(ConstraintKind)),
    starve=st.booleans(),
    infinite=st.booleans(),
)
def test_closed_form_matches_the_tables(seed, K, kind, starve, infinite):
    rng = np.random.default_rng(seed)
    drawn = drawn_stats(rng, K, kind, starve)
    if drawn is None:
        return
    stats, mask, table, n = drawn

    # Per-cell probability sums, some cells empty.
    cell_sums = rng.random((*mask.shape, 2)) * rng.integers(0, 3, size=(*mask.shape, 2))
    want, want_mask = table_bias(kind, stats, cell_sums, n)
    got, got_mask = constraint_bias(kind, stats, cell_sums, n)
    np.testing.assert_array_equal(got_mask, mask)
    np.testing.assert_array_equal(want_mask, mask)
    assert np.all(got[~mask] == 0.0) and np.all(want[~mask] == 0.0)
    both = kind in (ConstraintKind.PAIR_STATISTICAL, ConstraintKind.POINT_STATISTICAL)
    x = cell_sums.sum(axis=-1) if both else cell_sums[..., 1]
    assert_close(got, want, term_scale(kind, stats, x) / n)

    # Coefficients of mixed scale with exact zeros; undefined entries'
    # coefficients, infinite ones too, never count.
    coeffs = rng.normal(size=mask.shape) * 10.0 ** rng.integers(-3, 4, size=mask.shape)
    coeffs[rng.random(mask.shape) < 0.2] = 0.0
    if infinite:
        coeffs[~mask] = rng.choice([np.inf, -np.inf], size=int((~mask).sum()))
    want = table_cell_exponents(kind, stats, coeffs)
    got = constraint_exponents(kind, stats, coeffs)
    assert np.isfinite(got).all()
    assert_close(got, want, term_scale(kind, stats, np.abs(np.where(mask, coeffs, 0.0))))
    if both:
        np.testing.assert_array_equal(got[..., 0], got[..., 1])
    else:
        assert np.all(got[..., 0] == 0.0)
