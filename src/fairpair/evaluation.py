"""AUC, the fairness score, and full evaluation reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reweight
from .constraints import ConstraintKind
from .data import Dataset, PairSet
from .errors import ValidationError
from .model import check_scores


def auc(scores: np.ndarray, ds: Dataset) -> tuple[float, list[float]]:
    """Mean per-query AUC of per-item scores; queries without a discordant pair are excluded.

    Each query's AUC counts its discordant pairs with half credit for score
    ties, via midranks.  One order by (query, score) ranks every query at
    once (see _query_score_order).  Tied scores share one midrank, so their
    order within a tie is immaterial; midranks are half-integers, so their
    per-query sums are exact.
    """
    scores = check_scores(scores, ds.n_items)
    sizes = np.diff(ds.offsets)
    query = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)), sizes)
    # The items are stored query by query, so the order leaves query as it is.
    order = _query_score_order(scores, query)
    scores = scores[order]
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


def _query_score_order(scores: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The item order by (query, score): an unstable sort of the scores, then a stable
    (radix) sort of their queries, the permutation of a sort of query * n + rank."""
    perm = np.argsort(scores)
    return perm[np.argsort(query[perm], kind="stable")]


def fairness_score(delta: "reweight.DeltaMatrix") -> float | None:
    """One minus the worst antisymmetric violation gap; 1 means fair.

    The maximum always includes 0 (the same-group gap), so the score never
    exceeds 1.  Undefined entries are excluded from the scan and their
    mirror values read 0.  With no entry defined nothing was measured, so
    the score is None, never a number.  A violation that is not (K, K) is
    a ValidationError.
    """
    if delta.values.shape != delta.values.shape[:1] * 2:
        raise ValidationError(f"fairness score needs a (K, K) violation, got {delta.values.shape}")
    if not delta.defined.any():
        return None
    gaps = delta.values - delta.values.T
    return 1.0 - float(np.max(gaps[delta.defined], initial=0.0))


@dataclass(eq=False)
class EvalReport:
    auc: float
    fairness: float | None  # None when no violation entry is defined
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


def evaluate(scores: np.ndarray, ps: PairSet, kind: ConstraintKind) -> EvalReport:
    """Measure per-item scores of a pair set's source: AUC over its queries,
    and violation and fairness under the pair set's own group statistics."""
    delta = reweight.expected_bias(scores, ps, kind)
    mean_auc, per_query = auc(scores, ps.source)
    return EvalReport(
        auc=mean_auc,
        fairness=fairness_score(delta),
        delta=delta,
        per_query_auc=per_query,
        n_queries_evaluated=len(per_query),
        constraint_kind=kind,
    )
