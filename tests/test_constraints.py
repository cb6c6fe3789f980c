"""Tests for group statistics and the constraint families."""

import numpy as np
import pytest

from conftest import all_cells_pairs, build_dataset, random_dataset
from ordered_pairs import fold, ordered_pairs
from fairpair.constraints import (
    ConstraintKind,
    GroupStats,
    compute_group_stats,
    compute_point_stats,
    pair_constraint_mask,
    pair_constraint_table,
    point_constraint_mask,
    point_constraint_table,
)
from fairpair.data import item_cell, make_pairs
from fairpair.errors import ValidationError
from fairpair.reweight import Coefficients, pair_weights, point_weights

PAIR_KINDS = [
    ConstraintKind.PAIR_STATISTICAL,
    ConstraintKind.PAIR_INTER_GROUP,
    ConstraintKind.PAIR_INTRA_GROUP,
    ConstraintKind.PAIR_MARGINAL,
]


def make_stats(pair_frac, pos_pair_frac, pos_frac, item_frac=None, pos_item_frac=None):
    pair_frac = np.asarray(pair_frac, dtype=float)
    K = pair_frac.shape[0]
    return GroupStats(
        pair_frac,
        np.asarray(pos_pair_frac, dtype=float),
        float(pos_frac),
        np.asarray(item_frac if item_frac is not None else np.full(K, 1.0 / K)),
        np.asarray(pos_item_frac if pos_item_frac is not None else np.full(K, 0.5 / K)),
    )


class TestComputeStats:
    def test_single_group(self):
        ds = build_dataset([("q", [1, 0], [0, 0], [[0.0], [1.0]])], d=1, K=1)
        stats = compute_group_stats(make_pairs(ds))
        assert stats.pair_frac[0, 0] == 1.0
        assert stats.pos_frac == 0.5

    def test_cross_group_counting(self):
        # Two queries, each one positive group-0 item vs one negative
        # group-1 item: pairs alternate between (0,1) and (1,0).
        ds = build_dataset(
            [
                ("q1", [1, 0], [0, 1], [[0.0], [1.0]]),
                ("q2", [1, 0], [0, 1], [[2.0], [3.0]]),
            ],
            d=1,
            K=2,
        )
        stats = compute_group_stats(make_pairs(ds))
        assert stats.pair_frac[0, 1] == 0.5
        assert stats.pair_frac[1, 0] == 0.5
        assert stats.pair_frac[0, 0] == 0.0
        assert stats.pair_frac[1, 1] == 0.0

    def test_brute_force_recount(self, rng):
        # Independent oracle: plain dict counting over the ordered pairs,
        # each emitted pair in both orientations.
        ds = random_dataset(rng, n_queries=3, items_per_query=6, d=2, K=3)
        ps = make_pairs(ds)
        stats = compute_group_stats(ps)

        n = 2 * len(ps)
        count = {}
        pos_count = {}
        positives = 0
        for a, b in zip(ps.row_i, ps.row_j):
            for i, j in ((a, b), (b, a)):
                cell = (int(ds.groups[i]), int(ds.groups[j]))
                count[cell] = count.get(cell, 0) + 1
                if ds.labels[i] > ds.labels[j]:
                    pos_count[cell] = pos_count.get(cell, 0) + 1
                    positives += 1
        for k in range(3):
            for l in range(3):
                assert stats.pair_frac[k, l] == pytest.approx(
                    count.get((k, l), 0) / n, abs=1e-15
                )
                assert stats.pos_pair_frac[k, l] == pytest.approx(
                    pos_count.get((k, l), 0) / n, abs=1e-15
                )
        assert stats.pos_frac == pytest.approx(positives / n, abs=1e-15)

        n_items = ds.n_items
        for k in range(3):
            in_group = sum(1 for q in ds.queries for g in q.groups if g == k)
            pos_in_group = sum(
                1 for q in ds.queries for g, l in zip(q.groups, q.labels) if g == k and l == 1
            )
            assert stats.item_frac[k] == pytest.approx(in_group / n_items, abs=1e-15)
            assert stats.pos_item_frac[k] == pytest.approx(
                pos_in_group / n_items, abs=1e-15
            )

    def test_empty_pairset_rejected(self):
        ds = build_dataset([("q", [1, 1], [0, 0], [[0.0], [1.0]])], d=1, K=1)
        with pytest.raises(ValidationError, match="empty"):
            compute_group_stats(make_pairs(ds))

    def test_pos_pair_sums_to_pos_frac(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n_queries=4, items_per_query=7, d=2, K=3)
            stats = compute_group_stats(make_pairs(ds))
            assert abs(stats.pos_pair_frac.sum() - stats.pos_frac) < 1e-12


def cell_table(kind, stats):
    """pair_constraint_table indexed [k, l, group_i, group_j, label]."""
    K = stats.K
    return pair_constraint_table(kind, stats).reshape(K, K, K, K, 2)


def item_table(kind, stats):
    """point_constraint_table indexed [k, group, label]."""
    K = stats.item_frac.size
    return point_constraint_table(kind, stats).reshape(K, K, 2)


def own_label_weights(s, label):
    """Weight at its own label of a pair or item whose label-1 exponent is s:
    exp(s) at label 1 and exp(0) at label 0, normalized over both."""
    return np.where(label == 1, np.exp(s), 1.0) / (1.0 + np.exp(s))


class TestPairConstraint:
    def test_statistical_substitution(self):
        stats = make_stats(
            [[0.25, 0.25], [0.25, 0.25]], [[0.1, 0.15], [0.1, 0.15]], 0.5
        )
        val = cell_table(ConstraintKind.PAIR_STATISTICAL, stats)[0, 1, 0, 1, 1]
        assert val == pytest.approx(1 / 0.25 - 1)  # 3.0

    def test_label_zero_for_all_kinds(self):
        # Every constraint is 0 at label 0, so the weights give label 0 the
        # exponent 0 in every cell, whatever its label-1 value.
        stats = make_stats(
            [[0.25, 0.25], [0.25, 0.25]], [[0.1, 0.15], [0.1, 0.15]], 0.5
        )
        cases = {
            ConstraintKind.PAIR_STATISTICAL: (0, 1),
            ConstraintKind.PAIR_INTER_GROUP: (0, 1),
            ConstraintKind.PAIR_INTRA_GROUP: (1, 1),
            ConstraintKind.PAIR_MARGINAL: (0, 1),
        }
        ps = all_cells_pairs()
        ordered = ordered_pairs(ps)
        cell = ordered.cell
        for kind, (k, l) in cases.items():
            values = np.zeros((2, 2))
            values[k, l] = 0.7
            weights = pair_weights(Coefficients(values, kind), stats, ps)
            s = 0.7 * pair_constraint_table(kind, stats)[k, l, cell]
            # A pair weighs the mean of its two ordered pairs' weights.
            want = fold(own_label_weights(s, cell % 2), ordered)
            np.testing.assert_allclose(weights, want, rtol=1e-15)

    def test_statistical_nonmember(self):
        stats = make_stats(
            [[0.25, 0.25], [0.25, 0.25]], [[0.1, 0.15], [0.1, 0.15]], 0.5
        )
        assert cell_table(ConstraintKind.PAIR_STATISTICAL, stats)[0, 1, 1, 1, 1] == -1.0

    def test_inter_group_formula(self):
        stats = make_stats([[0.2, 0.3], [0.3, 0.2]], [[0.1, 0.2], [0.1, 0.1]], 0.5)
        got = cell_table(ConstraintKind.PAIR_INTER_GROUP, stats)[0, 1, 0, 1, 1]
        assert got == pytest.approx(1 / 0.2 - 1 / 0.5)

    def test_intra_group_formula(self):
        stats = make_stats([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.0], [0.0, 0.25]], 0.5)
        got = cell_table(ConstraintKind.PAIR_INTRA_GROUP, stats)[1, 1, 1, 1, 1]
        assert got == pytest.approx(1 / 0.25 - 1 / 0.5)

    def test_marginal_formula_ignores_second_index(self):
        stats = make_stats([[0.2, 0.3], [0.3, 0.2]], [[0.1, 0.2], [0.1, 0.1]], 0.5)
        table = cell_table(ConstraintKind.PAIR_MARGINAL, stats)
        for l in (0, 1):
            for group_j in (0, 1):
                # Row total for k=0 is 0.3.
                assert table[0, l, 0, group_j, 1] == pytest.approx(1 / 0.3 - 1 / 0.5)

    def test_default_proxy_is_the_label(self):
        # The observed label stands in for the true order probability: each
        # cell's value is its label times the membership term.
        stats = make_stats([[0.2, 0.3], [0.3, 0.2]], [[0.1, 0.2], [0.1, 0.1]], 0.5)
        table = cell_table(ConstraintKind.PAIR_INTER_GROUP, stats)
        for group_i, group_j, label in np.ndindex(2, 2, 2):
            member = 1.0 if (group_i, group_j) == (0, 1) else 0.0
            want = label * (member / 0.2 - 1 / 0.5)
            assert table[0, 1, group_i, group_j, label] == pytest.approx(want)

    def test_zero_denominator_is_masked(self):
        # A group pair without pairs has no statistical constraint: the entry
        # is masked and its table row reads 0 instead of dividing by zero.
        stats = make_stats([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.0], [0.0, 0.25]], 0.5)
        kind = ConstraintKind.PAIR_STATISTICAL
        assert not pair_constraint_mask(kind, stats)[0, 1]
        assert np.all(pair_constraint_table(kind, stats)[0, 1] == 0.0)

    def test_kind_domain_enforced(self):
        stats = make_stats(
            [[0.25, 0.25], [0.25, 0.25]], [[0.1, 0.15], [0.1, 0.15]], 0.5
        )
        # Diagonal entries do not exist for the cross-group families, nor
        # off-diagonal ones for the intra-group family.
        for kind, (k, l) in (
            (ConstraintKind.PAIR_STATISTICAL, (0, 0)),
            (ConstraintKind.PAIR_INTRA_GROUP, (0, 1)),
        ):
            assert not pair_constraint_mask(kind, stats)[k, l]
            assert np.all(pair_constraint_table(kind, stats)[k, l] == 0.0)

    def test_statistical_mean_zero_over_own_pairs(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n_queries=4, items_per_query=6, d=2, K=3)
            ps = make_pairs(ds)
            stats = compute_group_stats(ps)
            mask = pair_constraint_mask(ConstraintKind.PAIR_STATISTICAL, stats)
            table = pair_constraint_table(ConstraintKind.PAIR_STATISTICAL, stats)
            means = table[:, :, ordered_pairs(ps).cell].mean(axis=-1)
            assert np.all(np.abs(means[mask]) < 1e-12)

    def test_pairwise_kind_required(self):
        stats = make_stats([[1.0]], [[0.5]], 0.5)
        with pytest.raises(ValidationError):
            pair_constraint_table(ConstraintKind.POINT_STATISTICAL, stats)

    def test_table_built_once_per_kind_and_stats(self, rng):
        ps = make_pairs(random_dataset(rng, n_queries=4, items_per_query=6, d=2, K=3))
        stats, same_counts = compute_group_stats(ps), compute_group_stats(ps)
        for kind in PAIR_KINDS:
            table = pair_constraint_table(kind, stats)
            assert pair_constraint_table(kind, stats) is table
            assert not table.flags.writeable
            fresh = pair_constraint_table(kind, same_counts)
            assert fresh is not table and fresh.tobytes() == table.tobytes()
        tables = [pair_constraint_table(kind, stats) for kind in PAIR_KINDS]
        assert len({id(t) for t in tables}) == len(PAIR_KINDS)


class TestPointConstraint:
    def test_statistical_substitution(self):
        stats = make_stats(
            [[1.0]], [[0.5]], 0.5, item_frac=[0.5, 0.5], pos_item_frac=[0.25, 0.25]
        )
        got = item_table(ConstraintKind.POINT_STATISTICAL, stats)[0, 0, 1]
        assert got == pytest.approx(1.0)

    def test_label_zero(self):
        # As for pairs, label 0 gets the exponent 0 in every item cell.
        stats = make_stats(
            [[1.0]], [[0.5]], 0.5, item_frac=[0.5, 0.5], pos_item_frac=[0.25, 0.25]
        )
        ds = build_dataset([("q", [0, 1, 0, 1], [0, 0, 1, 1], [[0.0]] * 4)], d=1, K=2)
        cell = item_cell(ds.groups, ds.labels, 2)
        for kind in (ConstraintKind.POINT_STATISTICAL, ConstraintKind.POINT_EQUAL_OPPORTUNITY):
            weights = point_weights(np.asarray([0.7, 0.0]), stats, ds, kind)
            s = 0.7 * point_constraint_table(kind, stats)[0, cell]
            np.testing.assert_allclose(weights, own_label_weights(s, ds.labels), rtol=1e-15)

    def test_equal_opportunity_hand_built(self):
        # Six items: groups [0,0,0,1,1,1], labels [1,1,0,1,0,0].
        ds = build_dataset(
            [("q", [1, 1, 0, 1, 0, 0], [0, 0, 0, 1, 1, 1], [[float(i)] for i in range(6)])],
            d=1,
            K=2,
        )
        stats = compute_point_stats(ds)
        # Independent recount of the proportions.
        pos_frac_g0 = 2 / 6
        pos_frac_g1 = 1 / 6
        pos_total = 3 / 6
        assert stats.pos_item_frac[0] == pytest.approx(pos_frac_g0)
        assert stats.pos_item_frac[1] == pytest.approx(pos_frac_g1)

        table = item_table(ConstraintKind.POINT_EQUAL_OPPORTUNITY, stats)
        q = ds.queries[0]
        for group, item_label in zip(q.groups.tolist(), q.labels.tolist()):
            for k, frac in ((0, pos_frac_g0), (1, pos_frac_g1)):
                expected = item_label * ((1.0 if group == k else 0.0) / frac - 1 / pos_total)
                assert table[k, group, item_label] == pytest.approx(expected)

    def test_undefined_group_is_masked(self):
        # A group without items (or without positives) has no pointwise
        # constraint: masked, and its table row reads 0.
        stats = make_stats(
            [[1.0]], [[0.5]], 0.5, item_frac=[1.0, 0.0], pos_item_frac=[0.5, 0.0]
        )
        for kind in (ConstraintKind.POINT_STATISTICAL, ConstraintKind.POINT_EQUAL_OPPORTUNITY):
            assert not point_constraint_mask(kind, stats)[1]
            assert np.all(point_constraint_table(kind, stats)[1] == 0.0)


class TestMasks:
    def test_statistical_mask_excludes_diagonal_and_empty_cells(self):
        stats = make_stats([[0.5, 0.5], [0.0, 0.0]], [[0.2, 0.2], [0.0, 0.0]], 0.4)
        mask = pair_constraint_mask(ConstraintKind.PAIR_STATISTICAL, stats)
        assert mask.tolist() == [[False, True], [False, False]]

    def test_intra_mask_is_diagonal(self):
        stats = make_stats([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.0], [0.0, 0.25]], 0.5)
        mask = pair_constraint_mask(ConstraintKind.PAIR_INTRA_GROUP, stats)
        assert mask.tolist() == [[True, False], [False, True]]

    def test_marginal_mask_is_row_constant(self):
        stats = make_stats([[0.2, 0.3], [0.3, 0.2]], [[0.1, 0.2], [0.0, 0.0]], 0.3)
        mask = pair_constraint_mask(ConstraintKind.PAIR_MARGINAL, stats)
        assert mask.tolist() == [[True, True], [False, False]]

    def test_point_masks(self):
        stats = make_stats(
            [[1.0]], [[0.5]], 0.5, item_frac=[0.8, 0.0], pos_item_frac=[0.3, 0.0]
        )
        assert point_constraint_mask(ConstraintKind.POINT_STATISTICAL, stats).tolist() == [
            True,
            False,
        ]
        assert point_constraint_mask(
            ConstraintKind.POINT_EQUAL_OPPORTUNITY, stats
        ).tolist() == [True, False]
