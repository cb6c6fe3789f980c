"""AUC, the fairness score, and full evaluation reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reweight
from .constraints import ConstraintKind, compute_group_stats
from .data import Dataset, make_pairs
from .errors import ValidationError
from .model import LinearRankingModel, score_matrix


def _midrank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pair-counting AUC with half credit for score ties, via midranks."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0
    pos_rank_sum = float(midranks[inverse][labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(model: LinearRankingModel, ds: Dataset) -> tuple[float, list[float]]:
    """Mean per-query AUC; queries without a discordant pair are excluded."""
    per_query: list[float] = []
    for q in ds.queries:
        labels = q.labels
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == labels.size:
            continue
        per_query.append(_midrank_auc(score_matrix(model, q.features), labels))
    if not per_query:
        raise ValidationError("AUC undefined: no query has a discordant pair")
    return float(np.mean(per_query)), per_query


def fairness_score(delta: "reweight.DeltaMatrix") -> float:
    """One minus the worst antisymmetric violation gap; 1 means fair.

    The maximum always includes 0 (the same-group gap), so the score never
    exceeds 1.  Undefined entries are excluded from the scan and their
    mirror values read 0.
    """
    gaps = delta.values - delta.values.T
    return 1.0 - float(np.max(gaps[delta.defined], initial=0.0))


@dataclass(eq=False)
class EvalReport:
    auc: float
    fairness: float
    delta: "reweight.DeltaMatrix"
    per_query_auc: list[float]
    n_queries_evaluated: int
    constraint_kind: ConstraintKind

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "fairness": self.fairness,
            "delta": [float(v) for v in self.delta.values.ravel()],
            "defined_mask": [bool(v) for v in self.delta.defined.ravel()],
            "per_query_auc": [float(v) for v in self.per_query_auc],
            "n_queries_evaluated": self.n_queries_evaluated,
            "constraint_kind": self.constraint_kind.value,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


def evaluate(model: LinearRankingModel, ds: Dataset, kind: ConstraintKind) -> EvalReport:
    """Score a model on a dataset using only that dataset's own statistics."""
    if not kind.is_pairwise:
        raise ValidationError(f"{kind} is not a pairwise constraint kind")
    if model.d != ds.d:
        raise ValidationError(f"model dimension {model.d} != the dataset's feature dimension {ds.d}")
    ps = make_pairs(ds)
    if not len(ps):
        raise ValidationError("dataset has no discordant pairs to evaluate")
    stats = compute_group_stats(ps)
    delta = reweight.expected_bias(model, ps, stats, kind)
    mean_auc, per_query = auc(model, ds)
    return EvalReport(
        auc=mean_auc,
        fairness=fairness_score(delta),
        delta=delta,
        per_query_auc=per_query,
        n_queries_evaluated=len(per_query),
        constraint_kind=kind,
    )
