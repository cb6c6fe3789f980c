"""Linear ranking model: scoring, the stable sigmoid and model persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

# Predicted probabilities are clamped away from {0, 1} so that the
# logistic loss and its gradient stay finite.
PROB_EPS = 1e-12


def stable_sigmoid(z):
    """Numerically stable logistic function, elementwise.

    Never evaluates exp on a positive argument, so it cannot overflow for
    any finite input.  exp(min(z, 0)) / (1 + exp(-|z|)) is 1 / (1 + e) for
    z >= 0 and e / (1 + e) otherwise, with e = exp(-|z|), and needs no mask.
    Accepts scalars or arrays; a 0-d input returns a Python float.
    """
    z = np.asarray(z, dtype=np.float64)
    # Every step writes to an explicit buffer, so a 0-d input stays an array;
    # min(z, -z) is -|z| except that a NaN keeps its sign (as exp(z) did).
    num = np.minimum(z, 0.0, out=np.empty_like(z))
    np.exp(num, out=num)
    denom = np.negative(z, out=np.empty_like(z))
    np.minimum(z, denom, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    num /= denom
    if num.ndim == 0:
        return float(num)
    return num


def clamp_prob(p):
    """Clamp probabilities into [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


@dataclass(eq=False)
class LinearRankingModel:
    """Affine scorer h(x) = w.x + b shared across queries."""

    w: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ValidationError("model weights must be a 1-d vector")
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ValidationError("model parameters must be finite")

    @property
    def d(self) -> int:
        return self.w.size

    @classmethod
    def zeros(cls, d: int) -> "LinearRankingModel":
        return cls(np.zeros(d), 0.0)


def check_dimension(model: LinearRankingModel, d: int) -> None:
    """A model whose dimension is not the data's feature dimension d is a ValidationError."""
    if model.d != d:
        raise ValidationError(f"model dimension {model.d} != the data's feature dimension {d}")


def score_matrix(model: LinearRankingModel, X: np.ndarray) -> np.ndarray:
    """Score a (n, d) feature matrix."""
    check_dimension(model, X.shape[1])
    return X @ model.w + model.b


def save_model(model: LinearRankingModel, path) -> None:
    """Write the model as JSON; floats round-trip bit-exactly."""
    doc = {"d": model.d, "w": [float(v) for v in model.w], "b": float(model.b)}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> LinearRankingModel:
    """Read a model written by save_model; a malformed file is a ValidationError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        w = np.asarray(doc["w"], dtype=np.float64)
        d, b = doc["d"], float(doc["b"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"model file {path} is corrupt: {exc!r}") from None
    if w.shape != (d,):
        raise ValidationError(f"model file {path} is inconsistent: d != len(w)")
    return LinearRankingModel(w, b)
