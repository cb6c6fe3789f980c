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
from .model import LinearRankingModel, check_dimension, score_matrix


def auc(model: LinearRankingModel, ds: Dataset) -> tuple[float, list[float]]:
    """Mean per-query AUC; queries without a discordant pair are excluded.

    Each query's AUC counts its discordant pairs with half credit for score
    ties, via midranks.  One sort by (query, score) ranks every query at
    once; midranks are half-integers, so their per-query sums are exact.
    """
    sizes = np.diff(ds.offsets)
    query = np.repeat(np.arange(sizes.size), sizes)
    scores = score_matrix(model, ds.features)
    order = np.lexsort((scores, query))
    scores, query = scores[order], query[order]
    # Runs of tied scores within a query, by their first sorted position.
    new_run = np.ones(scores.size, dtype=bool)
    new_run[1:] = (query[1:] != query[:-1]) | (scores[1:] != scores[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=scores.size)
    # Sorting keeps each query's rows at its offsets, so ranks count from there.
    first = starts - ds.offsets[query[starts]]
    midranks = np.repeat((2 * first + counts + 1) / 2.0, counts)
    positive = ds.labels[order] == 1
    n_pos = np.bincount(query[positive], minlength=sizes.size)
    pos_rank_sum = np.bincount(query[positive], weights=midranks[positive], minlength=sizes.size)
    defined = (n_pos > 0) & (n_pos < sizes)
    if not defined.any():
        raise ValidationError("AUC undefined: no query has a discordant pair")
    n_pos, n_neg = n_pos[defined], sizes[defined] - n_pos[defined]
    per_query = (pos_rank_sum[defined] - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(np.mean(per_query)), per_query.tolist()


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
    check_dimension(model, ds.d)
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
