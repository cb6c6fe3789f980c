"""Tests for the linear ranking model and its persistence."""

import math

import numpy as np
import pytest

from conftest import build_dataset
from fairpair.data import make_pairs
from fairpair.errors import ValidationError
from fairpair.model import (
    LinearRankingModel,
    load_model,
    save_model,
    score_matrix,
    stable_sigmoid,
)
from loss_oracle import PROB_EPS, weighted_loss


class TestScore:
    def test_zero_model(self, rng):
        m = LinearRankingModel.zeros(3)
        np.testing.assert_array_equal(score_matrix(m, rng.normal(size=(5, 3))), np.zeros(5))

    def test_dot_product(self):
        m = LinearRankingModel(np.array([1.0, 0.0]), 0.0)
        assert score_matrix(m, np.array([[2.0, 5.0]])).tolist() == [2.0]

    def test_bias_shift(self, rng):
        w = rng.normal(size=4)
        X = rng.normal(size=(6, 4))
        base = score_matrix(LinearRankingModel(w, 0.0), X)
        shifted = score_matrix(LinearRankingModel(w, 1.5), X)
        np.testing.assert_allclose(shifted, base + 1.5)

    def test_dimension_mismatch(self):
        m = LinearRankingModel.zeros(3)
        with pytest.raises(ValidationError):
            score_matrix(m, np.zeros((2, 4)))

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValidationError):
            LinearRankingModel(np.array([np.inf]), 0.0)
        with pytest.raises(ValidationError):
            LinearRankingModel(np.array([1.0]), float("nan"))


def label_one_loss(model, x_pos, x_neg):
    """weighted_loss of the one pair (x_pos, x_neg) at label 1: -log P(pos outranks neg)."""
    ds = build_dataset([("q", [1, 0], [0, 0], [x_pos, x_neg])], d=len(x_pos), K=1)
    ps = make_pairs(ds)
    assert len(ps) == 1
    return weighted_loss(model, ps, np.array([1.0]))


class TestPairProb:
    # The model's order probability enters the library only through the
    # pair loss, so each property is read from -log of it.
    def test_identical_items(self, rng):
        m = LinearRankingModel(rng.normal(size=3), 0.3)
        x = rng.normal(size=3)
        assert label_one_loss(m, x, x) == math.log(2)

    def test_log3_difference(self):
        m = LinearRankingModel(np.array([1.0]), 0.0)
        loss = label_one_loss(m, [math.log(3)], [0.0])
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_swap_complement(self, rng):
        m = LinearRankingModel(rng.normal(size=3), 0.0)
        for _ in range(100):
            xi, xj = rng.normal(size=3), rng.normal(size=3)
            p_ij = math.exp(-label_one_loss(m, xi, xj))
            p_ji = math.exp(-label_one_loss(m, xj, xi))
            assert p_ij + p_ji == pytest.approx(1.0, abs=1e-12)

    def test_bias_invariance(self, rng):
        w = rng.normal(size=3)
        xi, xj = rng.normal(size=3), rng.normal(size=3)
        values = {label_one_loss(LinearRankingModel(w, b), xi, xj) for b in (-1e6, 0.0, 42.0)}
        assert len(values) == 1

    def test_monotone_in_first_score(self):
        m = LinearRankingModel(np.array([1.0]), 0.0)
        losses = [label_one_loss(m, [v], [0.0]) for v in np.linspace(-3, 3, 25)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_no_overflow_and_clamping(self):
        m = LinearRankingModel(np.array([1.0]), 0.0)
        assert label_one_loss(m, [1e3], [0.0]) == -math.log(1.0 - PROB_EPS)
        assert label_one_loss(m, [-1e3], [0.0]) == -math.log(PROB_EPS)


class TestStableSigmoid:
    def test_scalar_and_array(self):
        assert stable_sigmoid(0.0) == 0.5
        out = stable_sigmoid(np.array([0.0, math.log(3)]))
        np.testing.assert_allclose(out, [0.5, 0.75], atol=1e-15)

    def test_symmetry(self, rng):
        z = rng.uniform(-700, 700, size=1000)
        np.testing.assert_allclose(
            stable_sigmoid(z) + stable_sigmoid(-z), 1.0, atol=1e-12
        )

    def test_extreme_arguments_finite(self):
        assert stable_sigmoid(1e3) == 1.0
        assert stable_sigmoid(-1e3) == 0.0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        w = np.concatenate([rng.normal(size=5), [1 / 3, 1e-300, 12345.678901234567]])
        m = LinearRankingModel(w, b=-0.123456789012345678)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.w, m.w)
        assert back.b == m.b

    def test_save_is_deterministic(self, tmp_path, rng):
        m = LinearRankingModel(rng.normal(size=4), 0.25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 3, "w": [1.0, 2.0], "b": 0.0}')
        with pytest.raises(ValidationError):
            load_model(path)
