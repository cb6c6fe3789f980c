"""fair_train on a second model class: a linear model over a fixed quadratic
feature map, measured through its own per-item scores on the original
features' pair set."""

import dataclasses

import numpy as np

from fairpair.constraints import ConstraintKind, compute_group_stats
from fairpair.data import generate_synthetic, make_pairs, split_queries
from fairpair.evaluation import evaluate
from fairpair.model import score_matrix
from fairpair.reweight import FairTrainConfig, fair_train
from fairpair.training import TrainConfig

STAT = ConstraintKind.PAIR_STATISTICAL
# Fixed before the first run: generator s, split s + 1, trainer s + 2.
SEEDS = range(8)


def quadratic_map(train_features):
    """x and the upper triangle of x xᵀ, standardised by the train split."""
    rows, cols = np.triu_indices(train_features.shape[1])

    def raw(X):
        return np.hstack([X, X[:, rows] * X[:, cols]])

    mapped = raw(train_features)
    mean, std = mapped.mean(axis=0), mapped.std(axis=0)
    return lambda X: (raw(X) - mean) / std


def test_fair_train_makes_a_quadratic_model_fairer():
    unconstrained, pairwise = [], []
    for s in SEEDS:
        ds, _ = generate_synthetic(40, 30, d=5, K=2, bias_strength=1.0, seed=s)
        train, valid, test = split_queries(ds, 0.2, 0.16, seed=s + 1)
        fmap = quadratic_map(train.features)
        train_q, valid_q = (
            dataclasses.replace(split, features=fmap(split.features)) for split in (train, valid)
        )
        assert train_q.d == 20
        ps = make_pairs(test)
        stats = compute_group_stats(ps)
        for T, fairness in ((0, unconstrained), (20, pairwise)):
            cfg = FairTrainConfig(T=T, inner=TrainConfig(seed=s + 2))
            model, _, _ = fair_train(train_q, valid_q, STAT, cfg)
            report = evaluate(score_matrix(model, fmap(test.features)), ps, stats, STAT)
            fairness.append(report.fairness)
    assert np.median(pairwise) > np.median(unconstrained)
    assert sum(p > u for p, u in zip(pairwise, unconstrained)) >= 7
