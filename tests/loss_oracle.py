"""The whole-pair-set pairwise loss, kept as a small-input test oracle,
and the minibatch gradient's earlier form.

The trainer only ever needs the loss's gradient, a minibatch at a time
(training.batch_gradient).  ``weighted_loss`` evaluates the loss itself in
one pass over a whole (n_pairs, d) block of feature differences, so its
temporaries grow with the pair set; the tests call it on small pair sets
to check the trainer and the gradient against.

``old_batch_gradient`` is the minibatch gradient as it was before the
trainer formed its residual as -weight / (1 + exp(z)); the tests patch it
into training to show that the rest of the loop gives the bits it gave.
"""

import numpy as np

from fairpair.data import PairSet
from fairpair.model import LinearRankingModel, check_dimension, stable_sigmoid

# Predicted probabilities are clamped away from {0, 1}, so a log of them
# stays finite.  The library takes no log of a probability: its trainers
# form every residual as -weight / (1 + exp(min(z, 700))), and its
# violations sum the probabilities as they are.
PROB_EPS = 1e-12


def clamp_prob(p):
    """Clamp probabilities into [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def weighted_loss(model: LinearRankingModel, ps: PairSet, weights: np.ndarray) -> float:
    """Mean weighted pair loss over a whole pair set."""
    check_dimension(model, ps.source.d)
    diff = ps.source.features.take(ps.row_i, axis=0)
    diff -= ps.source.features.take(ps.row_j, axis=0)
    p = clamp_prob(stable_sigmoid(diff @ model.w))
    return float((weights * -np.log(p)).mean())


def old_batch_gradient(w: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """training.batch_gradient as it was: the clamped probability minus the
    pair label 1, times the weight, as the residual."""
    resid = stable_sigmoid(x @ w)
    np.maximum(resid, PROB_EPS, out=resid)
    np.minimum(resid, 1.0 - PROB_EPS, out=resid)
    resid -= 1.0
    resid *= weights
    return resid @ x / weights.size
