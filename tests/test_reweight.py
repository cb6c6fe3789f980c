"""Tests for closed-form pair weights, the violation measure, and the outer loop."""

import hashlib
import math

import numpy as np
import pytest

import fairpair.reweight as rw
from conftest import all_cells_pairs, build_dataset, random_dataset
from enumeration import EnumeratedInstance, bias_correction_identity
from fairpair import constraints
from fairpair.constraints import (
    ConstraintKind,
    GroupStats,
    compute_group_stats,
    pair_constraint_mask,
)
from fairpair.data import generate_synthetic, make_pairs, split_queries
from fairpair.errors import ValidationError
from fairpair.evaluation import auc, evaluate, fairness_score
from fairpair.model import LinearRankingModel
from fairpair.reweight import (
    Coefficients,
    DeltaMatrix,
    FairTrainConfig,
    IterationRecord,
    expected_bias,
    fair_train,
    pair_weights,
    point_weights,
    pointwise_reweight_train,
    update_coefficients,
    write_history_csv,
)
from fairpair.training import TrainConfig, train_pointwise, train_weighted
from ordered_pairs import fold, ordered_pairs, ordered_weights

STAT = ConstraintKind.PAIR_STATISTICAL


def small_cfg(T, seed=0, **kwargs):
    return FairTrainConfig(
        T=T,
        inner=TrainConfig(epochs=8, batch_size=64, seed=seed),
        **kwargs,
    )


class TestExpectedBias:
    def test_zero_model_statistical(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n_queries=4, items_per_query=6, K=3)
            ps = make_pairs(ds)
            stats = compute_group_stats(ps)
            delta = expected_bias(LinearRankingModel.zeros(ds.d), ps, stats, STAT)
            assert np.all(np.abs(delta.values) < 1e-12)

    def test_group_symmetric_dataset(self, rng):
        # Each feature point appears once per group with the same label, so
        # swapping group ids is a symmetry of the pair set.
        u, w = [1.0, 0.5], [-0.5, 2.0]
        ds = build_dataset(
            [("q", [1, 1, 0, 0], [0, 1, 0, 1], [u, u, w, w])], d=2, K=2
        )
        ps = make_pairs(ds)
        stats = compute_group_stats(ps)
        model = LinearRankingModel(np.asarray([0.3, -0.7]), 0.0)
        delta = expected_bias(model, ps, stats, STAT)
        assert delta.values[0, 1] == pytest.approx(delta.values[1, 0], abs=1e-15)

    def test_brute_force_oracle(self, rng):
        # Independent recomputation with plain python arithmetic.
        ds = build_dataset(
            [
                ("q1", [1, 0, 0], [0, 1, 0], [[0.2], [1.0], [-0.4]]),
                ("q2", [1, 1, 0], [1, 0, 1], [[2.0], [-1.0], [0.5]]),
                ("q3", [1, 0], [1, 0], [[0.9], [-0.3]]),
            ],
            d=1,
            K=2,
        )
        ps = make_pairs(ds)
        assert len(ps) == 5  # hand-sized instance: 10 ordered pairs
        stats = compute_group_stats(ps)
        model = LinearRankingModel(np.asarray([0.8]), 0.3)
        delta = expected_bias(model, ps, stats, STAT)

        mask = pair_constraint_mask(STAT, stats)
        for k in range(2):
            for l in range(2):
                if not mask[k, l]:
                    assert delta.values[k, l] == 0.0
                    continue
                # Over the ordered pairs: each pair in both orientations.
                total = 0.0
                for a, b in zip(ps.row_i, ps.row_j):
                    for i, j in ((a, b), (b, a)):
                        z = 0.8 * (ds.features[i][0] - ds.features[j][0])
                        l_hat = 1.0 / (1.0 + math.exp(-z))
                        member = ds.groups[i] == k and ds.groups[j] == l
                        c = (1.0 if member else 0.0) / stats.pair_frac[k, l] - 1.0
                        total += l_hat * c
                assert delta.values[k, l] == pytest.approx(total / (2 * len(ps)), abs=1e-12)

    def test_requires_pairwise_kind(self, rng):
        ds = random_dataset(rng)
        ps = make_pairs(ds)
        stats = compute_group_stats(ps)
        with pytest.raises(ValidationError):
            expected_bias(
                LinearRankingModel.zeros(ds.d), ps, stats, ConstraintKind.POINT_STATISTICAL
            )

    def test_model_dimension_checked(self, rng):
        ds = random_dataset(rng, d=3)
        ps = make_pairs(ds)
        stats = compute_group_stats(ps)
        with pytest.raises(ValidationError, match="model dimension 4 .* dimension 3"):
            expected_bias(LinearRankingModel.zeros(4), ps, stats, STAT)


def uniform_stats(K=2):
    return GroupStats(
        np.full((K, K), 1.0 / (K * K)),
        np.full((K, K), 0.5 / (K * K)),
        0.5,
        np.full(K, 1.0 / K),
        np.full(K, 0.5 / K),
    )


def weight_by_cell(coeffs, stats, weight_form="general"):
    """The weight of an ordered pair in each K=2 cell, indexed [group_i,
    group_j, label]; pair_weights must weigh each pair the mean of its two
    ordered pairs' weights."""
    ps = all_cells_pairs()
    ordered = ordered_pairs(ps)
    cell_weights = ordered_weights(coeffs, stats, ordered, weight_form)
    got = pair_weights(coeffs, stats, ps, weight_form)
    np.testing.assert_array_equal(got, fold(cell_weights, ordered))
    weights = np.empty(8)
    weights[ordered.cell] = cell_weights
    return weights.reshape(2, 2, 2)


class TestPairWeight:
    def test_zero_coefficients_give_half(self):
        weights = weight_by_cell(Coefficients.zeros(2, STAT), uniform_stats())
        assert np.all(weights == 0.5)

    def test_log3_exponent(self):
        # pair_frac = 1/2 makes the membership constraint equal 1, so one
        # coefficient of log 3 yields exponent log 3 for member pairs.
        stats = GroupStats(
            np.asarray([[0.0, 0.5], [0.5, 0.0]]),
            np.asarray([[0.0, 0.25], [0.25, 0.0]]),
            0.5,
            np.asarray([0.5, 0.5]),
            np.asarray([0.25, 0.25]),
        )
        values = np.zeros((2, 2))
        values[0, 1] = math.log(3)
        weights = weight_by_cell(Coefficients(values, STAT), stats)
        assert weights[0, 1, 1] == pytest.approx(0.75, abs=1e-12)
        assert weights[0, 1, 0] == pytest.approx(0.25, abs=1e-12)

    def test_normalization_and_sigmoid_identity(self, rng):
        # Random coefficients: every label-1 pair weighs the sigmoid of its
        # constraint sum, every label-0 pair one minus it, so the two label
        # weights of a group pair sum to one.
        for _ in range(50):
            K = int(rng.integers(2, 5))
            ds = random_dataset(rng, n_queries=3, items_per_query=6, K=K)
            ps = make_pairs(ds)
            stats = compute_group_stats(ps)
            mask = pair_constraint_mask(STAT, stats)
            values = rng.normal(scale=2.0, size=(K, K)) * mask
            coeffs = Coefficients(values, STAT)
            ordered = ordered_pairs(ps)
            weights = ordered_weights(coeffs, stats, ordered)
            # A pair weighs the mean of its two ordered pairs' weights.
            np.testing.assert_array_equal(pair_weights(coeffs, stats, ps), fold(weights, ordered))

            group_i, group_j, label = np.unravel_index(ordered.cell, (K, K, 2))
            s = np.zeros(len(ordered))
            for k, l in zip(*np.nonzero(mask)):
                member = (group_i == k) & (group_j == l)
                s += values[k, l] * (member / stats.pair_frac[k, l] - 1.0)
            sig = 1.0 / (1.0 + np.exp(-s))
            assert np.all(np.abs(weights - np.where(label == 1, sig, 1.0 - sig)) < 1e-12)

            by_cell = np.full(2 * K * K, np.nan)
            by_cell[ordered.cell] = weights
            sums = by_cell.reshape(K, K, 2).sum(axis=-1)
            assert np.all(np.abs(sums[~np.isnan(sums)] - 1.0) < 1e-12)

    def test_indicator_form(self):
        stats = uniform_stats()
        values = np.asarray([[0.0, math.log(3)], [0.0, 0.0]])
        weights = weight_by_cell(Coefficients(values, STAT), stats, "indicator")
        assert weights[0, 1, 1] == pytest.approx(0.75, abs=1e-12)
        # Same-group pairs hit masked diagonal entries: exponent 0.
        assert weights[0, 0, 1] == 0.5

    def test_monotone_in_coefficient(self):
        # Raising a coefficient raises the label-1 weight of member pairs.
        stats = uniform_stats()
        previous = 0.0
        for lam in (0.0, 0.5, 1.0, 2.0):
            values = np.zeros((2, 2))
            values[0, 1] = lam
            w1 = weight_by_cell(Coefficients(values, STAT), stats)[0, 1, 1]
            assert lam == 0.0 or w1 > previous
            previous = w1

    def test_inter_group_weights_use_label_proxy(self, rng):
        # With the observed-label proxy, a label-0 ordered pair has zero
        # constraint value at label 1, hence weight exactly one half, and a
        # pair weighs the mean of that and its label-1 orientation's weight.
        ds = random_dataset(rng, n_queries=3, items_per_query=6, K=2)
        ps = make_pairs(ds)
        stats = compute_group_stats(ps)
        kind = ConstraintKind.PAIR_INTER_GROUP
        mask = pair_constraint_mask(kind, stats)
        coeffs = Coefficients(rng.normal(size=(2, 2)) * mask, kind)
        ordered = ordered_pairs(ps)
        table = ordered_weights(coeffs, stats, ordered)
        assert np.all(table[ordered.label == 0] == 0.5)
        label_one = np.empty(len(ps))
        label_one[ordered.pair[ordered.label == 1]] = table[ordered.label == 1]
        np.testing.assert_array_equal(pair_weights(coeffs, stats, ps), (label_one + 0.5) / 2)


class TestUpdateCoefficients:
    def test_zero_delta_is_fixed_point(self):
        coeffs = Coefficients(np.asarray([[0.0, 1.5], [-0.5, 0.0]]), STAT)
        delta = DeltaMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
        updated = update_coefficients(coeffs, delta, eta=1.0)
        np.testing.assert_array_equal(updated.values, coeffs.values)

    def test_masked_entries_never_move(self):
        coeffs = Coefficients.zeros(2, STAT)
        defined = np.asarray([[False, True], [False, False]])
        delta = DeltaMatrix(np.asarray([[0.0, 0.25], [0.0, 0.0]]), defined)
        updated = update_coefficients(coeffs, delta, eta=2.0)
        assert updated.values[0, 1] == -0.5
        assert np.all(updated.values[defined == False] == 0.0)  # noqa: E712


def no_training(*args, **kwargs):
    raise AssertionError("trained before the inputs were checked")


class TestFairTrain:
    @staticmethod
    def biased_splits(seed=7):
        ds, _ = generate_synthetic(20, 16, 4, 2, bias_strength=1.2, seed=seed)
        return split_queries(ds, 0.25, 0.15, seed=1)

    def test_t_zero_equals_uniform_trainer(self):
        train, valid, _ = self.biased_splits()
        cfg = small_cfg(T=0)
        model, coeffs, history = fair_train(train, valid, STAT, cfg)
        ps = make_pairs(train)
        baseline = train_weighted(ps, np.full(len(ps), 0.5), cfg.inner)
        np.testing.assert_array_equal(model.w, baseline.w)
        assert model.b == baseline.b
        assert np.all(coeffs.values == 0.0)
        assert history == []

    def test_determinism(self):
        train, valid, _ = self.biased_splits()
        cfg = small_cfg(T=3, seed=5)
        m1, c1, h1 = fair_train(train, valid, STAT, cfg)
        m2, c2, h2 = fair_train(train, valid, STAT, cfg)
        np.testing.assert_array_equal(m1.w, m2.w)
        np.testing.assert_array_equal(c1.values, c2.values)
        for r1, r2 in zip(h1, h2):
            assert r1.auc_eval == r2.auc_eval
            np.testing.assert_array_equal(r1.coeffs, r2.coeffs)

    def test_zero_violation_is_a_fixed_point(self, monkeypatch):
        # If the measured violation is identically zero, the coefficients
        # stay zero and every retrain reproduces the unconstrained model.
        import fairpair.reweight as rw

        train, valid, _ = self.biased_splits()
        cfg = small_cfg(T=3)
        baseline, _, _ = fair_train(train, valid, STAT, small_cfg(T=0))

        real = rw.expected_bias

        def zero_bias(model, ps, stats, kind):
            delta = real(model, ps, stats, kind)
            return rw.DeltaMatrix(np.zeros_like(delta.values), delta.defined)

        monkeypatch.setattr(rw, "expected_bias", zero_bias)
        model, coeffs, history = fair_train(train, valid, STAT, cfg)
        np.testing.assert_array_equal(model.w, baseline.w)
        assert np.all(coeffs.values == 0.0)
        assert all(np.all(rec.coeffs == 0.0) for rec in history)

    def test_fairness_improves_on_biased_data(self):
        train, valid, test = self.biased_splits()
        base, _, _ = fair_train(train, valid, STAT, small_cfg(T=0, seed=2))
        fair, _, _ = fair_train(train, valid, STAT, small_cfg(T=10, seed=2))
        assert evaluate(fair, test, STAT).fairness > evaluate(base, test, STAT).fairness

    def test_history_records_shape(self):
        train, valid, _ = self.biased_splits()
        _, _, history = fair_train(train, valid, STAT, small_cfg(T=4))
        assert [rec.iteration for rec in history] == [1, 2, 3, 4]
        for rec in history:
            assert rec.delta.shape == (2, 2)
            assert rec.coeffs.shape == (2, 2)
            assert 0.0 <= rec.auc_train <= 1.0
            assert rec.fairness_train <= 1.0

    def test_delta_on_validation_set(self):
        train, valid, _ = self.biased_splits()
        m_tr, c_tr, _ = fair_train(train, valid, STAT, small_cfg(T=3))
        m_va, c_va, _ = fair_train(train, valid, STAT, small_cfg(T=3, delta_set="validation"))
        assert not np.array_equal(c_tr.values, c_va.values)

    def test_no_pair_set_holds_pair_feature_rows(self, monkeypatch):
        # Scoring reads item scores and the trainer gathers x_i - x_j a chunk
        # at a time, so after evaluate and T + 1 trainings every array a pair
        # set holds is one column: none is an (n_pairs, d) block.
        import fairpair.evaluation as ev

        made = []

        def recorded(ds):
            ps = make_pairs(ds)
            made.append(ps)
            return ps

        monkeypatch.setattr(rw, "make_pairs", recorded)
        monkeypatch.setattr(ev, "make_pairs", recorded)

        train, valid, test = self.biased_splits()
        evaluate(LinearRankingModel(np.ones(test.d)), test, STAT)
        fair_train(train, valid, STAT, small_cfg(T=3))
        assert len(made) == 3
        for ps in made:
            assert "arrays" in vars(ps)
            held = [v for obj in (ps, ps.arrays) for v in vars(obj).values()
                    if isinstance(v, np.ndarray)]
            assert held and all(v.shape == (len(ps),) for v in held)

    @pytest.mark.parametrize("delta_set", ["train", "validation"])
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_reuses_pairs_and_bias(self, monkeypatch, delta_set, warm_start):
        # Pair sets are built once per dataset and each delta reuses the bias
        # measured for the previous record; the history equals a loop that
        # rebuilds and remeasures everything.
        train, valid, _ = self.biased_splits()
        cfg = small_cfg(T=4, delta_set=delta_set, warm_start=warm_start)
        calls = {"make_pairs": 0, "expected_bias": 0}

        def counted(name):
            real = getattr(rw, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(rw, name, counted(name))
        model, coeffs, history = fair_train(train, valid, STAT, cfg)
        assert calls == {"make_pairs": 2, "expected_bias": 1 + 2 * cfg.T}

        ref_model, ref_coeffs, ref_history = plain_fair_train(train, valid, STAT, cfg)
        np.testing.assert_array_equal(model.w, ref_model.w)
        np.testing.assert_array_equal(coeffs.values, ref_coeffs.values)
        assert len(history) == len(ref_history) == cfg.T
        for rec, ref in zip(history, ref_history):
            assert (rec.auc_train, rec.auc_eval) == (ref.auc_train, ref.auc_eval)
            assert (rec.fairness_train, rec.fairness_eval) == (
                ref.fairness_train,
                ref.fairness_eval,
            )
            assert rec.delta.tobytes() == ref.delta.tobytes()
            assert rec.coeffs.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("weight_form", ["general", "indicator"])
    @pytest.mark.parametrize("delta_set", ["train", "validation"])
    def test_builds_each_constraint_table_once(self, monkeypatch, weight_form, delta_set):
        # One table per GroupStats, train and eval, where every expected_bias
        # and general pair_weights call used to build its own: 3T + 2 here.
        # The run equals one that builds a fresh table on every call.
        train, valid, _ = self.biased_splits()
        cfg = small_cfg(T=3, delta_set=delta_set, weight_form=weight_form)
        kind = ConstraintKind.PAIR_INTER_GROUP
        build = constraints._build_pair_constraint_table
        with monkeypatch.context() as mp:
            mp.setattr(rw, "pair_constraint_table", build)
            ref_model, ref_coeffs, ref_history = fair_train(train, valid, kind, cfg)

        built = []

        def counted(kind, stats):
            built.append(stats)
            return build(kind, stats)

        monkeypatch.setattr(constraints, "_build_pair_constraint_table", counted)
        model, coeffs, history = fair_train(train, valid, kind, cfg)
        assert len(built) == 2 and built[0] is not built[1]
        assert model.w.tobytes() == ref_model.w.tobytes()
        assert coeffs.values.tobytes() == ref_coeffs.values.tobytes()
        for rec, ref in zip(history, ref_history, strict=True):
            assert (rec.fairness_train, rec.fairness_eval) == (ref.fairness_train, ref.fairness_eval)
            assert rec.delta.tobytes() == ref.delta.tobytes()
            assert rec.coeffs.tobytes() == ref.coeffs.tobytes()

    def test_warm_start_changes_trajectory(self):
        train, valid, _ = self.biased_splits()
        m_cold, _, _ = fair_train(train, valid, STAT, small_cfg(T=3))
        m_warm, _, _ = fair_train(train, valid, STAT, small_cfg(T=3, warm_start=True))
        assert not np.array_equal(m_cold.w, m_warm.w)

    def test_requires_two_groups(self, rng):
        ds = random_dataset(rng, K=1)
        with pytest.raises(ValidationError):
            fair_train(ds, ds, STAT, small_cfg(T=1))

    def test_requires_pairwise_kind(self):
        train, valid, _ = self.biased_splits()
        with pytest.raises(ValidationError):
            fair_train(train, valid, ConstraintKind.POINT_STATISTICAL, small_cfg(T=1))

    @pytest.mark.parametrize("delta_set", ["train", "validation"])
    def test_eval_set_of_another_k_fails_before_training(self, rng, monkeypatch, delta_set):
        train, valid = random_dataset(rng, K=3), random_dataset(rng, K=4)
        monkeypatch.setattr(rw, "train_weighted", no_training)
        with pytest.raises(ValidationError, match="K=4 .*K=3"):
            fair_train(train, valid, STAT, small_cfg(T=2, delta_set=delta_set))


def plain_fair_train(train, eval_set, kind, cfg):
    """Reference outer loop: every pair set built and every bias measured afresh."""
    ps_train = make_pairs(train)
    stats_train = compute_group_stats(ps_train)
    ps_delta = make_pairs(train if cfg.delta_set == "train" else eval_set)
    stats_delta = compute_group_stats(ps_delta)
    ps_eval = make_pairs(eval_set)
    stats_eval = compute_group_stats(ps_eval)

    coeffs = Coefficients.zeros(train.K, kind)
    weights = pair_weights(coeffs, stats_train, ps_train, cfg.weight_form)
    model = train_weighted(ps_train, weights, cfg.inner)
    history = []
    for t in range(1, cfg.T + 1):
        delta = expected_bias(model, ps_delta, stats_delta, kind)
        coeffs = update_coefficients(coeffs, delta, cfg.eta_lambda)
        weights = pair_weights(coeffs, stats_train, ps_train, cfg.weight_form)
        init = model if cfg.warm_start else None
        model = train_weighted(ps_train, weights, cfg.inner, init=init)
        history.append(
            IterationRecord(
                iteration=t,
                auc_train=auc(model, train)[0],
                auc_eval=auc(model, eval_set)[0],
                fairness_train=fairness_score(expected_bias(model, ps_train, stats_train, kind)),
                fairness_eval=fairness_score(expected_bias(model, ps_eval, stats_eval, kind)),
                delta=delta.values.copy(),
                coeffs=coeffs.values.copy(),
            )
        )
    return model, coeffs, history


def hex_digest(values):
    """First 16 hex digits of the SHA-256 of the values' ``float.hex`` strings."""
    text = " ".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Recorded from fair_train before the trainer's per-step costs were cut
# (an int32 shuffle, np.clip, two exp calls per sigmoid, one constraint
# table row per (k, l) call).  Each history row digests the four metrics,
# then delta and the coefficients, row-major.
GOLDEN_W = ["0x1.0668e8f069708p-4", "-0x1.27be8a4602470p-4", "0x1.6cebc04c848bcp-4"]
GOLDEN_COEFFS = "23fd16a2bb6536ae"
GOLDEN_HISTORY = [
    "1185917d2ef7cd68", "d619c46c377c16c1", "a7d37c13bbbeb883", "d45f89c1998d83fd",
    "7ffb523f635395a3", "b86bd15719c1cad0", "b51e740ae0ced4a6", "c27563c04b779b83",
    "388058e6663abe7e", "251d572b05a5ab75", "6eb44ca8faa0c62c", "152f45fc6a3053fa",
    "c2484444d464a572", "db011d1eb470a18a", "9d3cd3f0d64f6d9e", "248a4a4124dae7e7",
    "e6987c3424364174", "a84d217a82d945ea", "044f625b92869189", "5af1c09a711979ca",
]


def test_small_fair_train_matches_its_recorded_bits():
    # The tiny reweight-k8 benchmark shape: 48x16 items, d=3, K=8, inter,
    # T=20, 3 epochs, deltas from the validation set.
    ds, _ = generate_synthetic(48, 16, d=3, K=8, bias_strength=1.0, seed=0)
    train, valid, _ = split_queries(ds, 0.2, 0.16, seed=1)
    cfg = FairTrainConfig(T=20, delta_set="validation", inner=TrainConfig(epochs=3, seed=2))
    model, coeffs, history = fair_train(train, valid, ConstraintKind.PAIR_INTER_GROUP, cfg)
    assert [v.hex() for v in model.w.tolist()] == GOLDEN_W and model.b == 0.0
    assert hex_digest(coeffs.values.ravel()) == GOLDEN_COEFFS
    rows = [
        hex_digest(
            [r.auc_train, r.auc_eval, r.fairness_train, r.fairness_eval]
            + [*r.delta.ravel(), *r.coeffs.ravel()]
        )
        for r in history
    ]
    assert rows == GOLDEN_HISTORY


class TestPointwiseReweightTrain:
    def test_t_zero_is_plain_logistic(self, rng):
        ds = random_dataset(rng, n_queries=5, items_per_query=8)
        cfg = small_cfg(T=0)
        model = pointwise_reweight_train(
            ds, ds, ConstraintKind.POINT_EQUAL_OPPORTUNITY, cfg
        )
        baseline = train_pointwise(ds, np.full(ds.n_items, 0.5), cfg.inner)
        np.testing.assert_array_equal(model.w, baseline.w)
        assert model.b == baseline.b

    def test_single_group_statistical_is_noop(self, rng):
        # With one group the statistical constraint is identically zero, so
        # every iteration retrains with the same uniform weights.
        ds = random_dataset(rng, n_queries=4, items_per_query=8, K=1)
        cfg = small_cfg(T=3)
        model = pointwise_reweight_train(ds, ds, ConstraintKind.POINT_STATISTICAL, cfg)
        baseline = train_pointwise(ds, np.full(ds.n_items, 0.5), cfg.inner)
        np.testing.assert_array_equal(model.w, baseline.w)
        assert model.b == baseline.b

    def test_requires_pointwise_kind(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError):
            pointwise_reweight_train(ds, ds, STAT, small_cfg(T=1))

    @pytest.mark.parametrize("delta_set", ["train", "validation"])
    def test_eval_set_of_another_k_fails_before_training(self, rng, monkeypatch, delta_set):
        train, valid = random_dataset(rng, K=3), random_dataset(rng, K=4)
        monkeypatch.setattr(rw, "train_pointwise", no_training)
        cfg = small_cfg(T=2, delta_set=delta_set)
        with pytest.raises(ValidationError, match="K=4 .*K=3"):
            pointwise_reweight_train(train, valid, ConstraintKind.POINT_STATISTICAL, cfg)

    def test_point_weights_normalized(self, rng):
        from fairpair.constraints import compute_point_stats

        ds = random_dataset(rng, n_queries=4, items_per_query=8, K=3)
        stats = compute_point_stats(ds)
        coeffs = rng.normal(size=3)
        w = point_weights(coeffs, stats, ds, ConstraintKind.POINT_EQUAL_OPPORTUNITY)
        assert np.all((w > 0) & (w < 1))


def random_instance(rng, n_pairs, K, with_negative=False):
    inst = EnumeratedInstance(
        mass=rng.dirichlet(np.ones(n_pairs)),
        true_pos=rng.uniform(0.05, 0.95, size=n_pairs),
        constraint_pos=rng.normal(size=(n_pairs, K, K)),
        predicted_pos=rng.uniform(0.05, 0.95, size=n_pairs),
    )
    if with_negative:
        inst.constraint_neg = rng.normal(size=(n_pairs, K, K))
    return inst


class TestBiasCorrectionIdentity:
    def test_zero_coefficients_collapse(self, rng):
        inst = random_instance(rng, 6, 2)
        coeffs = Coefficients.zeros(2, STAT)
        lhs, rhs = bias_correction_identity(inst, coeffs, "cross_entropy")
        # Weights are uniformly one half and the biased labels equal the
        # truth, so both sides are half the unweighted true loss.
        ce1 = -np.log(inst.predicted_pos)
        ce0 = -np.log1p(-inst.predicted_pos)
        true_loss = np.sum(
            inst.mass * (inst.true_pos * ce1 + (1 - inst.true_pos) * ce0)
        )
        assert lhs == pytest.approx(0.5 * true_loss, abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)

    @pytest.mark.parametrize("loss", ["cross_entropy", "squared"])
    def test_random_instances(self, rng, loss):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(2, 4))
            inst = random_instance(rng, n, K)
            coeffs = Coefficients(rng.normal(scale=0.8, size=(K, K)), STAT)
            lhs, rhs = bias_correction_identity(inst, coeffs, loss)
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("loss", ["cross_entropy", "squared"])
    def test_nonzero_negative_label_constraints(self, rng, loss):
        for _ in range(10):
            inst = random_instance(rng, 5, 2, with_negative=True)
            coeffs = Coefficients(rng.normal(scale=0.8, size=(2, 2)), STAT)
            lhs, rhs = bias_correction_identity(inst, coeffs, loss)
            assert abs(lhs - rhs) < 1e-10

    def test_unknown_loss(self, rng):
        inst = random_instance(rng, 4, 2)
        with pytest.raises(ValidationError):
            bias_correction_identity(inst, Coefficients.zeros(2, STAT), "hinge")


class TestHistoryCsv:
    def test_layout(self, tmp_path):
        from fairpair.reweight import IterationRecord

        history = [
            IterationRecord(1, 0.8, 0.7, 0.9, 0.85, np.asarray([[0.0, 0.1], [-0.1, 0.0]]),
                            np.asarray([[0.0, -0.1], [0.1, 0.0]])),
        ]
        path = tmp_path / "history.csv"
        write_history_csv(history, 2, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["iter", "auc_train", "auc_eval", "fairness_train", "fairness_eval"]
        assert header[5:9] == ["delta_00", "delta_01", "delta_10", "delta_11"]
        assert header[9:] == ["lambda_00", "lambda_01", "lambda_10", "lambda_11"]
        row = lines[1].split(",")
        assert row[0] == "1"
        assert float(row[6]) == 0.1
        assert float(row[10]) == -0.1

    @pytest.mark.parametrize("K", [2, 10, 12, 16])
    def test_column_names_are_unique(self, tmp_path, K):
        from fairpair.reweight import IterationRecord

        zeros = np.zeros((K, K))
        path = tmp_path / "history.csv"
        write_history_csv([IterationRecord(1, 0.5, 0.5, 1.0, 1.0, zeros, zeros)], K, path)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == len(set(header)) == 5 + 2 * K * K
