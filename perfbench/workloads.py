"""The benchmark workloads: their inputs, CLI operations and output checks.

Every input derives from the workload seed: the synthetic generator gets
``seed``, the query split ``seed + 1`` and the trainer ``seed + 2``.  See
README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from fairpair.data import generate_synthetic, load_csv, make_pairs, split_queries

# Pinned to today's TrainConfig defaults, so the nominal pair work of a
# workload does not move when a library default does.
EPOCHS = 30
BATCH_SIZE = 512
BIAS = 1.0
RATIO_TEST = 0.2
RATIO_VALID = 0.16

# Shapes as (n_queries, items_per_query, d, K); "tiny" is for the smoke test.
SIZES = {
    "full": {
        "reweight-k8": (120, 60, 5, 8),
        "evaluate-csv": (400, 60, 5, 2),
    },
    "tiny": {
        "reweight-k8": (48, 16, 3, 8),
        "evaluate-csv": (24, 16, 3, 2),
    },
}
K8_T = 20
K8_EPOCHS = 3
# evaluate-csv trains its model (pairwise, T=CSV_MODEL_T) in set-up on this many
# queries drawn from the same generator seed, so it sees the same hidden
# quality direction and group means as the CSV.  A fair model keeps
# test_fairness from swinging with the seed as an unconstrained one does.
CSV_MODEL_QUERIES = {"full": 40, "tiny": 12}
CSV_MODEL_EPOCHS = 10
CSV_MODEL_T = 2
SPLITS = ("train", "valid", "test")


@dataclass
class Op:
    """One CLI command and what it must leave in its output directory."""

    label: str
    argv: list[str]
    out: Path
    history_rows: int | None = None  # expected history.csv rows; None: no history
    problems: list[str] = field(default_factory=list)


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _synth(shape, seed: int, n_queries: int | None = None) -> dict:
    n, items, d, K = shape
    return {
        "n_queries": n if n_queries is None else n_queries,
        "items_per_query": items,
        "d": d,
        "K": K,
        "bias_strength": BIAS,
        "seed": seed,
    }


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _csv_rows(path: Path, problems: list[str]) -> list[list[str]]:
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]
    except OSError as exc:
        problems.append(f"{path.name}: {exc}")
        return []


def _unit_interval(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_common(op: Op, rc: int) -> dict | None:
    """Exit code, artifacts and the [0, 1] range of the test report.

    Returns the parsed eval_test.json, or None when it is unusable.
    """
    if rc != 0:
        op.problems.append(f"exit code {rc}")
    names = [f"eval_{s}.json" for s in SPLITS]
    if op.argv[0] == "train":
        names.append("model.json")
    if op.history_rows is not None:
        names.append("coefficients.json")
        rows = _csv_rows(op.out / "history.csv", op.problems)
        if len(rows) != op.history_rows:
            op.problems.append(f"history.csv has {len(rows)} rows, expected {op.history_rows}")
    docs = {name: _read_json(op.out / name, op.problems) for name in names}
    test = docs["eval_test.json"]
    if not isinstance(test, dict):
        return None
    for key in ("auc", "fairness"):
        if not _unit_interval(test.get(key)):
            op.problems.append(f"eval_test.json {key}={test.get(key)!r} is not in [0, 1]")
    return test


def _count_pairs(ds) -> int:
    """Ordered discordant pairs: each query contributes 2 * positives * negatives."""
    return sum(2 * int(q.labels.sum()) * int(len(q) - q.labels.sum()) for q in ds.queries)


def _mean_query_auc(ds, w: np.ndarray, b: float) -> float:
    """Mean over queries of the share of (positive, negative) pairs ranked
    correctly, ties counting half, by direct pair counting."""
    per_query = []
    for q in ds.queries:
        scores = q.features @ w + b
        pos, neg = scores[q.labels == 1], scores[q.labels == 0]
        if pos.size and neg.size:
            diff = pos[:, None] - neg[None, :]
            per_query.append(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)
    return float(np.mean(per_query))


class Workload:
    """Inputs, operations and checks of one workload in a work directory."""

    name: str

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = size
        self.work = work
        self.shape = SIZES[size][self.name]
        self.ops: list[Op] = []

    def _config(self, name: str, dataset: dict, out: Path, epochs=EPOCHS, **extra) -> str:
        doc = {
            "dataset": dataset,
            "split": {"ratio_test": RATIO_TEST, "ratio_valid": RATIO_VALID, "seed": self.seed + 1},
            "train": {"epochs": epochs, "batch_size": BATCH_SIZE, "seed": self.seed + 2},
            "out_dir": str(out),
        }
        doc.update(extra)
        return _write_config(self.work / name, doc)

    @cached_property
    def splits(self):
        """(train, valid, test) exactly as the CLI splits the op's dataset."""
        ds, _ = generate_synthetic(**_synth(self.shape, self.seed))
        return split_queries(ds, RATIO_TEST, RATIO_VALID, self.seed + 1)

    def prepare(self, run_cli) -> None:
        """Write the inputs; ``run_cli`` runs any set-up CLI command."""
        raise NotImplementedError

    def check(self, rcs: list[int]) -> dict | None:
        """Check every op's outputs; returns the test report of the final model."""
        raise NotImplementedError

    def pair_work(self) -> int:
        """Nominal pair work of the timed ops, from the config and pair counts."""
        raise NotImplementedError



class ReweightK8(Workload):
    name = "reweight-k8"

    def prepare(self, run_cli) -> None:
        out = self.work / "out"
        cfg = self._config(
            "config.json",
            {"synth": _synth(self.shape, self.seed)},
            out,
            constraint="inter",
            epochs=K8_EPOCHS,
            fair={"T": K8_T, "delta_set": "validation"},
        )
        self.ops = [Op("train", ["train", "--config", cfg], out, history_rows=K8_T)]

    def check(self, rcs):
        return check_common(self.ops[0], rcs[0])

    def pair_work(self) -> int:
        return (K8_T + 1) * _count_pairs(self.splits[0]) * K8_EPOCHS


class EvaluateCsv(Workload):
    name = "evaluate-csv"

    def prepare(self, run_cli) -> None:
        data_dir, model_dir, out = (self.work / n for n in ("data", "model", "out"))
        gen_cfg = self._config("generate.json", {"synth": _synth(self.shape, self.seed)}, data_dir)
        model_cfg = self._config(
            "model.json",
            {"synth": _synth(self.shape, self.seed, CSV_MODEL_QUERIES[self.size])},
            model_dir,
            epochs=CSV_MODEL_EPOCHS,
            constraint="statistical",
            fair={"T": CSV_MODEL_T},
        )
        for argv in (["generate", "--config", gen_cfg], ["train", "--config", model_cfg]):
            rc = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {rc}")
        out.mkdir()
        shutil.copyfile(model_dir / "model.json", out / "model.json")
        self.csv_path = data_dir / "dataset.csv"
        cfg = self._config(
            "config.json",
            {"csv": str(self.csv_path), "K": self.shape[3]},
            out,
            constraint="statistical",
        )
        self.ops = [Op("evaluate", ["evaluate", "--config", cfg], out)]

    @cached_property
    def splits(self):
        ds = load_csv(self.csv_path, self.shape[3])
        return split_queries(ds, RATIO_TEST, RATIO_VALID, self.seed + 1)

    def check(self, rcs):
        op = self.ops[0]
        test = check_common(op, rcs[0])
        model = _read_json(op.out / "model.json", op.problems)
        if test is None or model is None:
            return test
        try:
            w, b = np.asarray(model["w"], dtype=np.float64), float(model["b"])
        except (KeyError, TypeError, ValueError) as exc:
            op.problems.append(f"model.json is malformed: {exc!r}")
            return test
        for name, ds in zip(SPLITS, self.splits):
            report = _read_json(op.out / f"eval_{name}.json", op.problems) or {}
            reported = report.get("auc")
            expected = _mean_query_auc(ds, w, b)
            if not isinstance(reported, float) or abs(reported - expected) > 1e-12:
                op.problems.append(
                    f"eval_{name}.json auc {reported!r} != pair-counted {expected!r}"
                )
        return test

    def pair_work(self) -> int:
        return sum(_count_pairs(ds) for ds in self.splits)



WORKLOADS = {cls.name: cls for cls in (ReweightK8, EvaluateCsv)}


def pairs_peak_mb(ds) -> float:
    """tracemalloc peak of building a split's pairs and their arrays, in MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        make_pairs(ds).arrays
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
