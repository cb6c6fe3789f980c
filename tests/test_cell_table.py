"""Differential and property tests for the per-cell constraint core.

Every pairwise constraint value depends only on a pair's cell (group_i,
group_j, label), and every pointwise value only on an item's (group,
label) cell.  The reference functions below are copies of the per-pair and
per-item loops that the cell tables replaced, run on the ordered pairs
(both orientations of each pair, see ordered_pairs.py).  The weights must
match them bit for bit with the tables' algebra patched in (the loops sum
the same terms), and the violations to 1e-12.  The tables themselves are
test oracles (constraint_oracle.py), checked here against the loops.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_cells_pairs, build_dataset, random_dataset, validate_dataset
from constraint_oracle import (
    exp_own_label_weights,
    loop_exponents,
    loop_pair_constraint_table,
    pair_constraint_at_one,
    pair_constraint_table,
    table_algebra,
    table_exponents,
)
from fairpair.constraints import (
    ConstraintKind,
    compute_group_stats,
    compute_point_stats,
    constraint_exponents,
    pair_constraint_mask,
    point_constraint_mask,
)
from fairpair.data import Dataset, generate_synthetic, make_pairs, split_queries
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel, score_matrix, stable_sigmoid
from fairpair.reweight import (
    Coefficients,
    _own_label_weights,
    FairTrainConfig,
    expected_bias,
    fair_train,
    pair_weights,
    point_expected_bias,
    point_weights,
    pointwise_reweight_train,
)
from fairpair.training import TrainConfig
from ordered_pairs import fold, ordered_feature_diff, ordered_pairs

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]
POINT_KINDS = [k for k in ConstraintKind if k.is_pointwise]


def pair_groups(op):
    """Item groups of every ordered pair, unpacked from its cell."""
    K = op.source.K
    group_i, group_j, _ = np.unravel_index(op.cell, (K, K, 2))
    return group_i, group_j


def loop_expected_bias(model, op, stats, kind):
    group_i, group_j = pair_groups(op)
    l_hat = stable_sigmoid(ordered_feature_diff(op) @ model.w)
    proxy = op.label.astype(np.float64)
    mask = pair_constraint_mask(kind, stats)
    values = np.zeros((stats.K, stats.K))
    for k in range(stats.K):
        for l in range(stats.K):
            if mask[k, l]:
                c = pair_constraint_at_one(kind, stats, k, l, group_i, group_j, proxy)
                values[k, l] = float(np.mean(l_hat * c))
    return values, mask


def loop_normalized_pair(s):
    s = np.asarray(s, dtype=np.float64)
    m = np.maximum(s, 0.0)
    e0 = np.exp(-m)
    e1 = np.exp(s - m)
    denom = e0 + e1
    return e0 / denom, e1 / denom


def loop_weight_exponent_general(coeffs, stats, mask, group_i, group_j, proxy):
    s = np.zeros_like(np.asarray(group_i, dtype=np.float64))
    for k in range(stats.K):
        for l in range(stats.K):
            if mask[k, l] and coeffs.values[k, l] != 0.0:
                s += coeffs.values[k, l] * pair_constraint_at_one(
                    coeffs.kind, stats, k, l, group_i, group_j, proxy
                )
    return s


def loop_pair_weights(coeffs, stats, op, weight_form):
    """Each ordered pair's weight at its own label."""
    group_i, group_j = pair_groups(op)
    mask = pair_constraint_mask(coeffs.kind, stats)
    if weight_form == "general":
        proxy = op.label.astype(np.float64)
        s = loop_weight_exponent_general(coeffs, stats, mask, group_i, group_j, proxy)
    else:
        s = np.where(mask, coeffs.values, 0.0)[group_i, group_j]
    w0, w1 = loop_normalized_pair(s)
    return np.where(op.label == 1, w1, w0)


def loop_point_constraint_at_one(kind, stats, k, groups, labels):
    labels = np.asarray(labels, dtype=np.float64)
    member = (np.asarray(groups) == k).astype(float)
    if kind is ConstraintKind.POINT_STATISTICAL:
        return member / stats.pair_frac[k] - 1.0
    return labels * (member / stats.pos_pair_frac[k] - 1.0 / stats.pos_frac)


def loop_point_expected_bias(model, ds, stats, kind):
    p = stable_sigmoid(ds.features @ model.w + model.b)
    mask = point_constraint_mask(kind, stats)
    values = np.zeros(stats.K)
    for k in range(stats.K):
        if mask[k]:
            c = loop_point_constraint_at_one(kind, stats, k, ds.groups, ds.labels)
            values[k] = float(np.mean(p * c))
    return values, mask


def loop_point_weights(coeffs, stats, ds, kind):
    mask = point_constraint_mask(kind, stats)
    s = np.zeros(ds.groups.size)
    for k in range(stats.K):
        if mask[k] and coeffs[k] != 0.0:
            s += coeffs[k] * loop_point_constraint_at_one(
                kind, stats, k, ds.groups, ds.labels
            )
    w0, w1 = loop_normalized_pair(s)
    return np.where(ds.labels == 1, w1, w0)


def random_coefficients(rng, K, scale):
    """Normal coefficients with some exact zeros; masked entries are nonzero too.

    Sparse cells have constraint values up to the pair count, so ``scale``
    must keep the exponents of occupied cells from underflowing.
    """
    values = rng.normal(scale=scale, size=(K, K))
    values[rng.random((K, K)) < 0.2] = 0.0
    return values


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
class TestPairTablesMatchLoops:
    @staticmethod
    def setup_data(rng, K):
        # K=8 on 6x20 items leaves some group pairs empty, so masks vary.
        ds = random_dataset(rng, n_queries=6, items_per_query=20, d=3, K=K)
        ps = make_pairs(ds)
        return ds, ps, compute_group_stats(ps)

    def test_table_bit_identical(self, rng, kind, K):
        # The broadcast table against one oracle call per defined (k, l).
        # Giving the last group only negative items empties its label-1
        # cells, so pos_pair_frac has zero entries at every K.
        ds, ps, stats = self.setup_data(rng, K)
        labels = np.where(ds.groups == K - 1, 0, ds.labels)
        ds_neg = Dataset(ds.query_ids, ds.offsets, ds.features, labels, ds.groups, K)
        stats_neg = compute_group_stats(make_pairs(validate_dataset(ds_neg)))
        assert np.all(stats_neg.pos_pair_frac[K - 1] == 0.0)
        for s in (stats, stats_neg):
            assert_same_bits(pair_constraint_table(kind, s), loop_pair_constraint_table(kind, s))

    def test_pair_weights_bit_identical(self, rng, monkeypatch, kind, K):
        # A pair weighs the mean of its two ordered pairs' loop weights.  The
        # loop sums the table's terms, so the exponents go through the tables.
        table_algebra(monkeypatch)
        ds, ps, stats = self.setup_data(rng, K)
        op = ordered_pairs(ps)
        undefined = ~pair_constraint_mask(kind, stats)
        for trial in range(5):
            values = random_coefficients(rng, K, scale=0.1)
            if trial % 2:
                # Undefined entries never contribute, whatever their coefficient.
                values[undefined] = np.inf
            coeffs = Coefficients(values, kind)
            for form in ("general", "indicator"):
                got = pair_weights(coeffs, ps, form)
                assert_same_bits(got, fold(loop_pair_weights(coeffs, stats, op, form), op))

    def test_expected_bias_matches(self, rng, kind, K):
        ds, ps, stats = self.setup_data(rng, K)
        for _ in range(5):
            model = LinearRankingModel(rng.normal(scale=2.0, size=ds.d), 0.0)
            delta = expected_bias(score_matrix(model, ds.features), ps, kind)
            values, mask = loop_expected_bias(model, ordered_pairs(ps), stats, kind)
            np.testing.assert_array_equal(delta.defined, mask)
            np.testing.assert_allclose(delta.values, values, rtol=0, atol=1e-12)
            assert np.all(delta.values[~mask] == 0.0)

    def test_scalar_weight_is_table_lookup(self, rng, kind, K):
        # A pair's weight is a lookup of its (group_i, group_j, label) cell:
        # all pairs of one cell share one weight.
        ds, ps, stats = self.setup_data(rng, K)
        coeffs = Coefficients(random_coefficients(rng, K, scale=0.1), kind)
        for form in ("general", "indicator"):
            weights = pair_weights(coeffs, ps, form)
            by_cell = np.zeros(2 * K * K)
            by_cell[ps.arrays] = weights
            assert_same_bits(by_cell[ps.arrays], weights)


def test_exponents_match_running_sum_bits(rng):
    # Pair-shaped (K, K, 2K^2) and point-shaped (K, 2K) tables with zero
    # entries, coefficients of mixed scale with exact zeros and -0.0, and
    # random masks: negative coefficients on zero entries make -0.0 terms.
    for trial in range(300):
        K = int(rng.integers(2, 17))
        shape = (K,) if trial % 4 == 0 else (K, K)
        table = rng.normal(size=(*shape, 2 * K ** len(shape)))
        table *= 10.0 ** rng.integers(-3, 4, size=shape)[..., None]
        table[rng.random(table.shape) < 0.3] = 0.0
        coeffs = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 7, size=shape)
        coeffs[rng.random(shape) < 0.2] = 0.0
        coeffs[rng.random(shape) < 0.05] = -0.0
        mask = rng.random(shape) < 0.8
        assert_same_bits(table_exponents(coeffs, mask, table), loop_exponents(coeffs, mask, table))
    # Only -0.0 terms: the running sum from zeros reads +0.0.
    coeffs, table = np.array([-1.0, -2.0]), np.zeros((2, 4))
    got = table_exponents(coeffs, np.ones(2, dtype=bool), table)
    assert_same_bits(got, loop_exponents(coeffs, np.ones(2, dtype=bool), table))
    assert not np.signbit(got).any()
    # No entry held: zeros.
    assert_same_bits(table_exponents(coeffs, np.zeros(2, dtype=bool), table), np.zeros(4))


def test_own_label_weights_match_exp_form_bits(rng):
    # Every value sits at a label-0 and a label-1 cell: signed zeros, the
    # edges of exp's range (±700, ±745), the largest doubles, and normals
    # scaled by 1e-10 to 800.
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308])
    scales = 10.0 ** rng.uniform(-10, np.log10(800), size=10**5)
    for s in (edges, rng.normal(size=scales.size) * scales):
        s = np.repeat(s, 2)
        assert_same_bits(_own_label_weights(s), exp_own_label_weights(s))


def test_own_label_weights_at_infinite_exponent():
    # The one change from the exponential form: at s = +inf it gave NaN
    # with a RuntimeWarning (inf - inf); the sigmoid gives 0 at label 0 and
    # 1 at label 1, the limits.  At s = -inf both give 1 and 0.
    s = np.array([np.inf, np.inf, -np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _own_label_weights(s)
    assert_same_bits(got, np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        old = exp_own_label_weights(s)
    assert np.isnan(old[:2]).all() and old[2:].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("K", [2, 8, 16])
def test_exponents_match_running_sum_bits_on_tables(rng, kind, K):
    ds = random_dataset(rng, n_queries=8, items_per_query=30, d=3, K=K)
    stats = compute_group_stats(make_pairs(ds))
    mask, table = pair_constraint_mask(kind, stats), pair_constraint_table(kind, stats)
    for scale in (0.0, 1e-3, 1.0, 50.0):
        coeffs = random_coefficients(rng, K, scale=scale)
        assert_same_bits(table_exponents(coeffs, mask, table), loop_exponents(coeffs, mask, table))


@pytest.mark.parametrize("kind", POINT_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("K", [1, 3, 8])
class TestPointTablesMatchLoops:
    def test_point_weights_bit_identical(self, rng, monkeypatch, kind, K):
        table_algebra(monkeypatch)  # as for pairs, the loop sums the table's terms
        ds = random_dataset(rng, n_queries=5, items_per_query=12, d=3, K=K)
        stats = compute_point_stats(ds)
        for _ in range(5):
            coeffs = rng.normal(scale=2.0, size=K)
            coeffs[rng.random(K) < 0.2] = 0.0
            got = point_weights(Coefficients(coeffs, kind), ds)
            assert_same_bits(got, loop_point_weights(coeffs, stats, ds, kind))

    def test_point_expected_bias_matches(self, rng, kind, K):
        ds = random_dataset(rng, n_queries=5, items_per_query=12, d=3, K=K)
        stats = compute_point_stats(ds)
        for _ in range(5):
            model = LinearRankingModel(rng.normal(size=ds.d), float(rng.normal()))
            delta = point_expected_bias(score_matrix(model, ds.features), ds, kind)
            want, want_mask = loop_point_expected_bias(model, ds, stats, kind)
            np.testing.assert_array_equal(delta.defined, want_mask)
            np.testing.assert_allclose(delta.values, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 5),
    kind=st.sampled_from(PAIR_KINDS),
)
def test_label_weights_of_a_cell_sum_to_one(seed, K, kind):
    # The label-1 and label-0 weights at one exponent s, exp(s) and exp(0)
    # normalized, sum to one: a label-1 pair weighs sigmoid(s) of its own
    # cell and a label-0 pair 1 - sigmoid(s).  A pair weighs the mean of its
    # label-1 orientation's weight and its label-0 mirror's.
    rng = np.random.default_rng(seed)
    ps = make_pairs(random_dataset(rng, n_queries=3, items_per_query=6, K=K))
    stats = compute_group_stats(ps)
    coeffs = Coefficients(random_coefficients(rng, K, scale=5.0), kind)
    s = constraint_exponents(kind, stats, coeffs.values).ravel()
    op = ordered_pairs(ps)
    cell = op.cell
    try:
        weights = pair_weights(coeffs, ps)
    except ValidationError:
        # Exponents beyond the float range underflow a weight, which pair_weights refuses.
        assert np.abs(s[cell]).max() > 700
        return
    sig = stable_sigmoid(s[cell])
    own = np.where(cell % 2 == 1, sig, 1.0 - sig)
    assert np.all(np.abs(weights - fold(own, op)) <= 1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6))
def test_group_stats_equal_group_pair_bincount(seed, K):
    rng = np.random.default_rng(seed)
    ps = make_pairs(random_dataset(rng, n_queries=3, items_per_query=7, K=K))
    stats = compute_group_stats(ps)
    op = ordered_pairs(ps)
    group_i, group_j = pair_groups(op)
    cell = group_i * K + group_j
    pair_frac = (np.bincount(cell, minlength=K * K) / len(op)).reshape(K, K)
    pos_pair_frac = (
        np.bincount(cell, weights=op.label.astype(float), minlength=K * K) / len(op)
    ).reshape(K, K)
    assert_same_bits(stats.pair_frac, pair_frac)
    assert_same_bits(stats.pos_pair_frac, pos_pair_frac)


class TestWeightUnderflow:
    @staticmethod
    def splits():
        ds, _ = generate_synthetic(40, 30, d=5, K=2, bias_strength=1.0, seed=7)
        return split_queries(ds, 0.2, 0.16, seed=13)

    def test_large_eta_lambda_names_cell_iteration_and_step(self):
        train, valid, _ = self.splits()
        cfg = FairTrainConfig(eta_lambda=1e4, T=5, inner=TrainConfig(epochs=2, seed=17))
        with pytest.raises(ValidationError) as info:
            fair_train(train, valid, ConstraintKind.PAIR_INTER_GROUP, cfg)
        message = str(info.value)
        assert "outer iteration 1 with eta_lambda=10000.0" in message
        assert "pair weight of cell (k=0, l=0, label=1) is 0.0" in message

    def test_pointwise_large_eta_lambda_names_cell_iteration_and_step(self):
        train, valid, _ = self.splits()
        cfg = FairTrainConfig(eta_lambda=1e6, T=3, inner=TrainConfig(epochs=2, seed=17))
        with pytest.raises(ValidationError) as info:
            pointwise_reweight_train(train, valid, ConstraintKind.POINT_STATISTICAL, cfg)
        message = str(info.value)
        assert "outer iteration 1 with eta_lambda=1000000.0" in message
        assert "item weight of cell (k=0, label=1) is 0.0" in message

    def test_only_cells_holding_pairs_are_checked(self):
        # Group 0 items are all positive and group 1 items all negative, so
        # only cells (0, 1, 1) and (1, 0, 0) hold ordered pairs.
        ds = build_dataset([("q", [1, 1, 0, 0], [0, 0, 1, 1], [[0.0]] * 4)], d=1, K=2)
        ps = make_pairs(ds)
        values = np.asarray([[0.0, 1e4], [0.0, 0.0]])
        coeffs = Coefficients(values, ConstraintKind.PAIR_STATISTICAL)
        np.testing.assert_array_equal(pair_weights(coeffs, ps), np.ones(len(ps)))
        # The same coefficients on a pair set whose ordered pairs fill every
        # cell: the exponent of every cell but (0, 1) is -1e4, so cells such
        # as (0, 0, 1) and (1, 0, 1) weigh 0, and the first is named.
        with pytest.raises(ValidationError, match=r"cell \(k=0, l=0, label=1\) is 0\.0"):
            pair_weights(coeffs, all_cells_pairs())

    def test_underflow_of_a_mirror_cell_is_named(self):
        # Pairs (0, 1, 1) and (0, 0, 1), so the ordered cells (1, 0, 0) and
        # (0, 0, 0) hold their mirrors.  Cell (0, 1, 1) weighs sigmoid(-300)
        # > 0 but its mirror cell (1, 0, 0) weighs sigmoid(-900) == 0.
        ds = build_dataset(
            [("a", [1, 0], [0, 1], [[0.0]] * 2), ("b", [1, 0], [0, 0], [[0.0]] * 2)], d=1, K=2
        )
        ps = make_pairs(ds)
        values = np.asarray([[0.0, 0.0], [300.0, 0.0]])
        coeffs = Coefficients(values, ConstraintKind.PAIR_STATISTICAL)
        with pytest.raises(ValidationError, match=r"cell \(k=1, l=0, label=0\) is 0\.0"):
            pair_weights(coeffs, ps)
