"""The per-row CSV writers, kept as a test oracle.

save_csv and save_truth_csv format their rows with map, converting a block
of values at a time, and write_history_csv joins each row's reprs.  They
used to hand each row to csv.writer; these are those writers, and the new
ones must write the same bytes.
"""

import csv
from pathlib import Path


def row_save_csv(ds, path) -> None:
    """save_csv as one csv.writer row per item."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "group", "label"] + [f"f{i}" for i in range(ds.d)])
        for q in ds.queries:
            for group, label, feats in zip(q.groups.tolist(), q.labels.tolist(), q.features.tolist()):
                writer.writerow([q.query_id, group, label] + [repr(v) for v in feats])


def row_save_truth_csv(truth, ds, path) -> None:
    """save_truth_csv as one csv.writer row per item."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "y_true"])
        for q, probs in zip(ds.queries, truth.item_probs):
            for p in probs.tolist():
                writer.writerow([q.query_id, repr(p)])


def row_write_history_csv(history, K: int, path) -> None:
    """write_history_csv as one csv.writer row per iteration, a float() per value."""
    w = len(str(K - 1))
    cells = [f"{k:0{w}}{l:0{w}}" for k in range(K) for l in range(K)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "auc_train", "auc_eval", "fairness_train", "fairness_eval"]
            + [f"delta_{c}" for c in cells]
            + [f"lambda_{c}" for c in cells]
        )
        for rec in history:
            writer.writerow(
                [rec.iteration]
                + [repr(v) for v in (rec.auc_train, rec.auc_eval, rec.fairness_train, rec.fairness_eval)]
                + [repr(float(v)) for v in rec.delta.ravel()]
                + [repr(float(v)) for v in rec.coeffs.ravel()]
            )
