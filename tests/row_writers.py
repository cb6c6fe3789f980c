"""The per-row CSV writers, kept as a test oracle.

save_csv and save_truth_csv format their rows with map, converting a block
of values at a time.  They used to hand each row to csv.writer; these are
those writers, and the streaming ones must write the same bytes.
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
