"""Command-line front end: generate, train, sweep, evaluate.

Every run is driven by a JSON config file; a handful of flags override
config keys.  The only environment dependence is the optional FAIRPAIR_OUT
variable, which overrides the output directory.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constraints import ConstraintKind, compute_group_stats
from .data import (
    Dataset,
    generate_synthetic,
    load_csv,
    make_pairs,
    save_csv,
    save_truth_csv,
    split_queries,
)
from .errors import ValidationError
from .evaluation import evaluate
from .model import load_model, save_model
from .reweight import (
    Coefficients,
    FairTrainConfig,
    fair_train,
    pair_weights,
    pointwise_reweight_train,
    write_history_csv,
)
from .training import TrainConfig, require_types, train_weighted

PAIR_KINDS = {
    "statistical": ConstraintKind.PAIR_STATISTICAL,
    "inter": ConstraintKind.PAIR_INTER_GROUP,
    "intra": ConstraintKind.PAIR_INTRA_GROUP,
    "marginal": ConstraintKind.PAIR_MARGINAL,
}
POINT_KINDS = {
    "statistical": ConstraintKind.POINT_STATISTICAL,
    "equal_opportunity": ConstraintKind.POINT_EQUAL_OPPORTUNITY,
}
METHODS = ("unconstrained", "pairwise", "pointwise")
DEFAULT_SWEEP_SCALES = [0.0, 0.5, 1.0, 1.5, 2.0]


@dataclass(eq=False)
class RunConfig:
    """Resolved knobs for one experiment run."""

    csv_path: Path | None
    csv_K: int | None
    synth: dict | None
    constraint: ConstraintKind
    point_constraint: ConstraintKind
    method: str
    ratio_test: float
    ratio_valid: float
    split_seed: int
    train: TrainConfig
    fair: FairTrainConfig
    sweep_scales: list[float]
    out_dir: Path


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {value!r}")
    return value


def _checked_block(value, where: str, ints=(), floats=(), defaults=None) -> dict:
    """Check one config object: known keys only, required keys present, and
    integer or finite-number values.  Returns the values with defaults filled in."""
    block = {**(defaults or {}), **_object(value, where)}
    names = (*ints, *floats)
    for key in block:
        if key not in names:
            raise ValidationError(f"unknown config key {where}.{key}")
    for key in names:
        if key not in block:
            raise ValidationError(f"config key {where}.{key} is required")
    require_types(
        {f"{where}.{key}": v for key, v in block.items()},
        ints=[f"{where}.{key}" for key in ints],
        floats=[f"{where}.{key}" for key in floats],
    )
    return block


def _build_config(doc: dict, args: argparse.Namespace) -> RunConfig:
    source = doc.get("dataset")
    if not isinstance(source, dict) or ("csv" in source) == ("synth" in source):
        raise ValidationError("config must set dataset.csv or dataset.synth (exactly one)")
    synth = None
    if "synth" in source:
        synth = _checked_block(
            source["synth"],
            "dataset.synth",
            ints=("n_queries", "items_per_query", "d", "K", "seed"),
            floats=("bias_strength",),
        )
    elif "K" not in source:
        raise ValidationError("dataset.csv requires a declared group count dataset.K")
    elif not isinstance(source["csv"], str):
        raise ValidationError(f"dataset.csv must be a path string, got {source['csv']!r}")
    else:
        require_types({"dataset.K": source["K"]}, ints=("dataset.K",))
        if source["K"] < 1:
            raise ValidationError("dataset.K must be >= 1")

    constraint_name = args.constraint or doc.get("constraint", "statistical")
    if constraint_name not in PAIR_KINDS:
        raise ValidationError(f"unknown constraint {constraint_name!r}")
    point_name = doc.get("point_constraint", "equal_opportunity")
    if point_name not in POINT_KINDS:
        raise ValidationError(f"unknown point_constraint {point_name!r}")
    method = args.method or doc.get("method", "pairwise")
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")

    split = _checked_block(
        doc.get("split", {}),
        "split",
        ints=("seed",),
        floats=("ratio_test", "ratio_valid"),
        defaults={"ratio_test": 0.2, "ratio_valid": 0.16, "seed": 13},
    )
    scales = doc.get("sweep_scales", DEFAULT_SWEEP_SCALES)
    if not isinstance(scales, list):
        raise ValidationError(f"sweep_scales must be a JSON list of numbers, got {scales!r}")
    require_types(
        {f"sweep_scales[{i}]": x for i, x in enumerate(scales)},
        floats=[f"sweep_scales[{i}]" for i in range(len(scales))],
    )

    train_doc = dict(_object(doc.get("train", {}), "train"))
    if args.seed is not None:
        train_doc["seed"] = args.seed
    train_cfg = TrainConfig(**train_doc)

    fair_doc = dict(_object(doc.get("fair", {}), "fair"))
    if args.T is not None:
        fair_doc["T"] = args.T
    fair_cfg = FairTrainConfig(inner=train_cfg, **fair_doc)

    out_dir = args.out or os.environ.get("FAIRPAIR_OUT") or doc.get("out_dir")
    if not out_dir:
        raise ValidationError("no output directory: set out_dir, FAIRPAIR_OUT, or --out")

    return RunConfig(
        csv_path=Path(source["csv"]) if synth is None else None,
        csv_K=source["K"] if synth is None else None,
        synth=synth,
        constraint=PAIR_KINDS[constraint_name],
        point_constraint=POINT_KINDS[point_name],
        method=method,
        ratio_test=float(split["ratio_test"]),
        ratio_valid=float(split["ratio_valid"]),
        split_seed=split["seed"],
        train=train_cfg,
        fair=fair_cfg,
        sweep_scales=[float(x) for x in scales],
        out_dir=Path(out_dir),
    )


def load_config(path, args: argparse.Namespace) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    try:
        return _build_config(doc, args)
    except TypeError as exc:
        raise ValidationError(f"config {path}: {exc}") from None


def _load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.csv_path is not None:
        return load_csv(cfg.csv_path, cfg.csv_K)
    return generate_synthetic(**cfg.synth)[0]


def _has_pairs(ds: Dataset) -> bool:
    pos = ds.query_positives()
    return bool(((0 < pos) & (pos < np.diff(ds.offsets))).any())


def _write_reports(model, splits: dict[str, Dataset], kind, out_dir: Path) -> None:
    for name, ds in splits.items():
        if _has_pairs(ds):
            report = evaluate(model, ds, kind)
            report.write_json(out_dir / f"eval_{name}.json")
            print(f"eval_{name}: auc={report.auc:.4f} fairness={report.fairness:.4f}")


def cmd_generate(cfg: RunConfig) -> None:
    if cfg.synth is None:
        raise ValidationError("generate requires a dataset.synth config block")
    ds, truth = generate_synthetic(**cfg.synth)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(ds, cfg.out_dir / "dataset.csv")
    save_truth_csv(truth, ds, cfg.out_dir / "truth.csv")
    print(f"wrote {cfg.out_dir / 'dataset.csv'} ({len(ds.query_ids)} queries, d={ds.d}, K={ds.K})")


def _split(cfg: RunConfig, ds: Dataset):
    return split_queries(ds, cfg.ratio_test, cfg.ratio_valid, cfg.split_seed)


def cmd_train(cfg: RunConfig) -> None:
    ds = _load_dataset(cfg)
    train, valid, test = _split(cfg, ds)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.method == "pointwise":
        model = pointwise_reweight_train(train, valid, cfg.point_constraint, cfg.fair)
    else:
        fair_cfg = cfg.fair
        if cfg.method == "unconstrained":
            fair_cfg = dataclasses.replace(cfg.fair, T=0)
        model, coeffs, history = fair_train(train, valid, cfg.constraint, fair_cfg)
        write_history_csv(history, train.K, cfg.out_dir / "history.csv")
        _write_coefficients(coeffs, cfg.out_dir / "coefficients.json")

    save_model(model, cfg.out_dir / "model.json")
    print(f"wrote {cfg.out_dir / 'model.json'} (method={cfg.method})")
    _write_reports(
        model, {"train": train, "valid": valid, "test": test}, cfg.constraint, cfg.out_dir
    )


def _write_coefficients(coeffs: Coefficients, path: Path) -> None:
    doc = {
        "kind": coeffs.kind.value,
        "K": coeffs.values.shape[0],
        "values": [float(v) for v in coeffs.values.ravel()],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _read_coefficients(path: Path, K: int, kind: ConstraintKind) -> Coefficients:
    """Read coefficients written by train; they must match the data's K and the kind."""
    if not path.exists():
        raise ValidationError(
            f"missing coefficients artifact {path}; run `fairpair train` first"
        )
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        file_K, file_kind = doc["K"], doc["kind"]
        values = np.asarray(doc["values"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"coefficients file {path} is corrupt: {exc!r}") from None
    if file_kind != kind.value:
        raise ValidationError(
            f"coefficients file {path} holds {file_kind!r} coefficients, "
            f"but the configured constraint is {kind.value!r}"
        )
    if file_K != K:
        raise ValidationError(
            f"coefficients file {path} has K={file_K!r}, but the dataset has K={K}"
        )
    if values.shape != (K * K,) or not np.all(np.isfinite(values)):
        raise ValidationError(f"coefficients file {path} must hold {K * K} finite values")
    return Coefficients(values.reshape(K, K), kind)


def cmd_sweep(cfg: RunConfig) -> None:
    ds = _load_dataset(cfg)
    kind = cfg.constraint
    coeffs_star = _read_coefficients(cfg.out_dir / "coefficients.json", ds.K, kind)
    train, _valid, test = _split(cfg, ds)
    ps = make_pairs(train)
    stats = compute_group_stats(ps)

    rows = []
    for x in cfg.sweep_scales:
        scaled = Coefficients(x * coeffs_star.values, kind)
        weights = pair_weights(scaled, stats, ps, cfg.fair.weight_form)
        model = train_weighted(ps, weights, cfg.fair.inner)
        report = evaluate(model, test, kind)
        rows.append((x, report.auc, report.fairness))
        print(f"sweep x={x:g}: auc={report.auc:.4f} fairness={report.fairness:.4f}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with (cfg.out_dir / "sweep.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "auc", "fairness"])
        for x, a, f in rows:
            writer.writerow([repr(float(x)), repr(a), repr(f)])
    print(f"wrote {cfg.out_dir / 'sweep.csv'}")


def cmd_evaluate(cfg: RunConfig) -> None:
    model_path = cfg.out_dir / "model.json"
    if not model_path.exists():
        raise ValidationError(f"missing model artifact {model_path}; run `fairpair train` first")
    model = load_model(model_path)
    ds = _load_dataset(cfg)
    train, valid, test = _split(cfg, ds)
    _write_reports(
        model, {"train": train, "valid": valid, "test": test}, cfg.constraint, cfg.out_dir
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpair",
        description="Fair learning-to-rank via pairwise data reweighting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", cmd_generate),
        ("train", cmd_train),
        ("sweep", cmd_sweep),
        ("evaluate", cmd_evaluate),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--method", choices=METHODS, help="override config method")
        sp.add_argument(
            "--constraint", choices=sorted(PAIR_KINDS), help="override pairwise constraint"
        )
        sp.add_argument("--T", type=int, help="override the outer loop count")
        sp.add_argument("--seed", type=int, help="override the trainer seed")
        sp.add_argument("--out", help="override the output directory")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        args.fn(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
