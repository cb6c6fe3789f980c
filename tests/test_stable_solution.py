"""The outer loop as a fixed-point iteration, lambda <- lambda - eta * delta(fit(lambda)).

The abstract promises a stable solution from repeatedly weighting the data
and training the model.  On the pinned K=2 shape (40 queries x 30 items,
``statistical``, eta = 1, deltas from the training set) the plain loop's
largest violation shrinks by a roughly constant factor each step, 0.45 to
0.9 a step on seeds 0-3.
"""

import numpy as np
import pytest

from fairpair.constraints import ConstraintKind
from fairpair.data import generate_synthetic, split_queries
from fairpair.reweight import FairTrainConfig, fair_train
from fairpair.training import TrainConfig

# The seeds the loop was first measured on, and a round factor that
# measurement cleared on each of them: seed 2, the slowest, shrank by 0.073
# over the 19 steps the history spans, the others by 0.002 or less.
SEEDS = [0, 1, 2, 3]
FACTOR = 0.1


@pytest.mark.parametrize("seed", SEEDS)
def test_training_violation_contracts(seed):
    # Seeds map as in the benchmark: generator s, split s + 1, trainer s + 2.
    ds, _ = generate_synthetic(40, 30, d=5, K=2, bias_strength=1.0, seed=seed)
    train, valid, _ = split_queries(ds, 0.2, 0.16, seed=seed + 1)
    cfg = FairTrainConfig(T=20, eta_lambda=1.0, delta_set="train", inner=TrainConfig(seed=seed + 2))
    _, _, history = fair_train(train, valid, ConstraintKind.PAIR_STATISTICAL, cfg)
    # Record t holds the violation of the model fit before step t.
    worst = np.array([np.abs(rec.delta).max() for rec in history])
    assert len(worst) == 20 and worst[0] > 0
    assert np.all(worst[1:] < worst[:-1])
    assert worst[-1] <= FACTOR * worst[0]
