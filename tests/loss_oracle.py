"""The whole-pair-set pairwise loss, kept as a small-input test oracle.

The trainer only ever needs the loss's gradient, a minibatch at a time
(training.batch_gradient).  ``weighted_loss`` evaluates the loss itself in
one pass over a whole (n_pairs, d) block of feature differences, so its
temporaries grow with the pair set; the tests call it on small pair sets
to check the trainer and the gradient against.
"""

import numpy as np

from fairpair.data import PairSet
from fairpair.model import LinearRankingModel, check_dimension, clamp_prob, stable_sigmoid


def weighted_loss(model: LinearRankingModel, ps: PairSet, weights: np.ndarray) -> float:
    """Mean weighted pair loss over a whole pair set."""
    check_dimension(model, ps.source.d)
    diff = ps.source.features.take(ps.row_i, axis=0)
    diff -= ps.source.features.take(ps.row_j, axis=0)
    p = clamp_prob(stable_sigmoid(diff @ model.w))
    return float((weights * -np.log(p)).mean())
