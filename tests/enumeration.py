"""Exact enumeration check of the reweighting identity (acceptance criterion 1).

On a finite universe of feature pairs, the weighted objective under biased
labels equals a scaled objective under true labels on a tilted feature
distribution, for any loss.  Only tests use this check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairpair.errors import ValidationError
from fairpair.reweight import Coefficients
from loss_oracle import clamp_prob


@dataclass(eq=False)
class EnumeratedInstance:
    """A finite universe of feature pairs for exact objective checks.

    mass[x] is the sampling probability of pair x, true_pos[x] the true
    order probability, constraint_pos[x, k, l] the constraint value at
    label 1 (label 0 values default to zero), and predicted_pos[x] the
    model's order probability at some arbitrary fixed model.
    """

    mass: np.ndarray  # (n,)
    true_pos: np.ndarray  # (n,)
    constraint_pos: np.ndarray  # (n, K, K)
    predicted_pos: np.ndarray  # (n,)
    constraint_neg: np.ndarray | None = None


def _instance_losses(inst: EnumeratedInstance, loss: str) -> tuple[np.ndarray, np.ndarray]:
    p = clamp_prob(inst.predicted_pos)
    if loss == "cross_entropy":
        return -np.log1p(-p), -np.log(p)
    if loss == "squared":
        return p**2, (p - 1.0) ** 2
    raise ValidationError(f"unknown loss {loss!r}")


def bias_correction_identity(
    inst: EnumeratedInstance, coeffs: Coefficients, loss: str = "cross_entropy"
) -> tuple[float, float]:
    """Evaluate both sides of the reweighting equivalence by enumeration.

    The biased label distribution is constructed so that the true labels
    are its coefficient-tilted exponential family member; the left side is
    the weighted objective under biased labels, the right side the scaled
    objective under true labels on the correspondingly tilted feature
    distribution.  The two agree identically for any loss.
    """
    lam = coeffs.values
    s1 = np.einsum("nkl,kl->n", inst.constraint_pos, lam)
    if inst.constraint_neg is not None:
        s0 = np.einsum("nkl,kl->n", inst.constraint_neg, lam)
    else:
        s0 = np.zeros_like(s1)
    e1 = np.exp(s1)
    e0 = np.exp(s0)
    w1 = e1 / (e0 + e1)
    w0 = e0 / (e0 + e1)

    # Invert the tilt: biased label odds are the true odds divided by exp(s).
    b1 = inst.true_pos / e1
    b0 = (1.0 - inst.true_pos) / e0
    norm = b1 + b0
    b1 /= norm
    b0 /= norm

    phi = w1 * b1 + w0 * b0
    scale = float(np.sum(inst.mass * phi))
    tilted_mass = inst.mass * phi / scale

    loss0, loss1 = _instance_losses(inst, loss)
    lhs = float(np.sum(inst.mass * (b1 * w1 * loss1 + b0 * w0 * loss0)))
    rhs = scale * float(
        np.sum(tilted_mass * (inst.true_pos * loss1 + (1.0 - inst.true_pos) * loss0))
    )
    return lhs, rhs
