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

from .constraints import ConstraintKind
from .data import (
    Dataset,
    checked_pairs,
    generate_synthetic,
    load_csv,
    make_pairs,
    save_csv,
    save_truth_csv,
    split_queries,
)
from .errors import ValidationError, require_types
from .evaluation import evaluate
from .model import load_model, save_model, score_matrix
from .reweight import (
    Coefficients,
    FairTrainConfig,
    fair_train,
    pair_weights,
    pointwise_reweight_train,
    write_history_csv,
)
from .training import TrainConfig, shared_epoch_orders, train_weighted

PAIR_KINDS = {k.value: k for k in ConstraintKind if k.is_pairwise}
POINT_KINDS = {
    "statistical": ConstraintKind.POINT_STATISTICAL,
    "equal_opportunity": ConstraintKind.POINT_EQUAL_OPPORTUNITY,
}
METHODS = ("unconstrained", "pairwise", "pointwise")
DEFAULT_SWEEP_SCALES = [0.0, 0.5, 1.0, 1.5, 2.0]


@dataclass(eq=False)
class RunConfig:
    """Resolved knobs for one experiment run."""

    dataset: dict  # {"csv": path, "K": K} or {"synth": generate_synthetic's arguments}
    constraint: ConstraintKind
    point_constraint: ConstraintKind
    method: str
    split: dict  # split_queries' keyword arguments
    fair: FairTrainConfig
    sweep_scales: list[float]
    out_dir: Path


def _object(value, where: str, names) -> dict:
    """A copy of one config object whose keys are all among ``names``;
    ``where`` is its dotted path, empty for the top level."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in names:
            raise ValidationError(f"unknown config key {where + '.' if where else ''}{key}")
    return dict(value)


def _checked_block(value, where: str, ints=(), floats=(), defaults=None) -> dict:
    """Check one config object: known keys only, required keys present, and
    integer or finite-number values.  Returns the values, defaults filled in."""
    names = (*ints, *floats)
    block = {**(defaults or {}), **_object(value, where, names)}
    for key in names:
        if key not in block:
            raise ValidationError(f"config key {where}.{key} is required")
    dotted = [[f"{where}.{key}" for key in keys] for keys in (ints, floats)]
    checked = require_types({f"{where}.{key}": v for key, v in block.items()}, *dotted)
    return dict(zip(block, checked.values()))


def _name(doc: dict, key: str, names, default: str) -> str:
    """The config value of ``key``, which must be one of ``names``."""
    name = doc.get(key, default)
    if not isinstance(name, str) or name not in names:
        raise ValidationError(f"unknown {key} {name!r}")
    return name


def _dataset(source) -> dict:
    """The checked dataset block, in its csv or its synth form."""
    if not isinstance(source, dict) or ("csv" in source) == ("synth" in source):
        raise ValidationError("config must set dataset.csv or dataset.synth (exactly one)")
    source = _object(source, "dataset", ("synth",) if "synth" in source else ("csv", "K"))
    if "synth" in source:
        ints = ("n_queries", "items_per_query", "d", "K", "seed")
        return {"synth": _checked_block(source["synth"], "dataset.synth", ints, ("bias_strength",))}
    if "K" not in source:
        raise ValidationError("dataset.csv requires a declared group count dataset.K")
    if not isinstance(source["csv"], str):
        raise ValidationError(f"dataset.csv must be a path string, got {source['csv']!r}")
    require_types({"dataset.K": source["K"]}, ints=("dataset.K",))
    if source["K"] < 1:
        raise ValidationError("dataset.K must be >= 1")
    return source


def load_config(path, args: argparse.Namespace) -> RunConfig:
    """Resolve a config file: the flags, then FAIRPAIR_OUT, replace the
    document keys they name, and then every key is checked once."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    out = args.out or os.environ.get("FAIRPAIR_OUT")
    for key, value in (("constraint", args.constraint), ("method", args.method), ("out_dir", out)):
        if value:
            doc[key] = value
    for block, key, value in (("train", "seed", args.seed), ("fair", "T", args.T)):
        if value is not None and isinstance(doc.get(block, {}), dict):
            doc[block] = {**doc.get(block, {}), key: value}
    doc = _object(doc, "", ("dataset", "constraint", "point_constraint", "method", "split",
                            "train", "fair", "sweep_scales", "out_dir"))
    dataset = _dataset(doc.get("dataset"))
    constraint = PAIR_KINDS[_name(doc, "constraint", PAIR_KINDS, "statistical")]
    point_constraint = POINT_KINDS[_name(doc, "point_constraint", POINT_KINDS, "equal_opportunity")]
    method = _name(doc, "method", METHODS, "pairwise")
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
    fields = {f"sweep_scales[{i}]": x for i, x in enumerate(scales)}
    scales = list(require_types(fields, floats=list(fields)).values())
    inner = TrainConfig(**_object(doc.get("train", {}), "train", vars(TrainConfig())))
    fair_keys = vars(FairTrainConfig()).keys() - {"inner"}
    fair = FairTrainConfig(inner=inner, **_object(doc.get("fair", {}), "fair", fair_keys))

    out_dir = doc.get("out_dir")
    if not out_dir:
        raise ValidationError("no output directory: set out_dir, FAIRPAIR_OUT, or --out")
    if not isinstance(out_dir, str):
        raise ValidationError(f"out_dir must be a path string, got {out_dir!r}")
    return RunConfig(dataset, constraint, point_constraint, method, split, fair, scales,
                     Path(out_dir))


def _load_dataset(cfg: RunConfig) -> Dataset:
    if "csv" in cfg.dataset:
        return load_csv(cfg.dataset["csv"], cfg.dataset["K"])
    return generate_synthetic(**cfg.dataset["synth"])[0]


def _shown(fairness: float | None) -> str:
    """A fairness for stdout: n/a where no violation entry is defined."""
    return "n/a" if fairness is None else f"{fairness:.4f}"


def _write_reports(model, splits, kind, out_dir: Path) -> None:
    """One report a split that has pairs; each pair set is dropped before the next is built."""
    for name, ds in zip(("train", "valid", "test"), splits):
        ps = make_pairs(ds)
        if len(ps):
            report = evaluate(score_matrix(model, ds.features), ps, kind)
            report.write_json(out_dir / f"eval_{name}.json")
            print(f"eval_{name}: auc={report.auc:.4f} fairness={_shown(report.fairness)}")
        del ps


def cmd_generate(cfg: RunConfig) -> None:
    if "synth" not in cfg.dataset:
        raise ValidationError("generate requires a dataset.synth config block")
    ds, truth = generate_synthetic(**cfg.dataset["synth"])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(ds, cfg.out_dir / "dataset.csv")
    save_truth_csv(truth, ds, cfg.out_dir / "truth.csv")
    print(f"wrote {cfg.out_dir / 'dataset.csv'} ({len(ds.query_ids)} queries, d={ds.d}, K={ds.K})")


def cmd_train(cfg: RunConfig) -> None:
    train, valid, test = split_queries(_load_dataset(cfg), **cfg.split)
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
    _write_reports(model, (train, valid, test), cfg.constraint, cfg.out_dir)


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
        raise ValidationError(f"missing coefficients artifact {path}; run `fairpair train` first")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        file_K, file_kind = doc["K"], doc["kind"]
        fields = {"K": file_K, **{f"values[{i}]": v for i, v in enumerate(doc["values"])}}
        require_types(fields, ints=["K"], floats=list(fields)[1:])
        values = np.asarray(doc["values"], dtype=np.float64)
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
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
    if values.shape != (K * K,):
        raise ValidationError(f"coefficients file {path} must hold {K * K} finite values")
    return Coefficients(values.reshape(K, K), kind)


def cmd_sweep(cfg: RunConfig) -> None:
    kind = cfg.constraint
    train, _valid, test = split_queries(_load_dataset(cfg), **cfg.split)
    coeffs_star = _read_coefficients(cfg.out_dir / "coefficients.json", train.K, kind)
    ps = checked_pairs(train, "training set")
    orders = shared_epoch_orders(ps.row_i, ps.row_j, train.n_items, cfg.fair.inner)
    ps_test = checked_pairs(test, "test set")

    rows = []
    for x in cfg.sweep_scales:
        scaled = Coefficients(x * coeffs_star.values, kind)
        weights = pair_weights(scaled, ps, cfg.fair.weight_form)
        model = train_weighted(ps, weights, cfg.fair.inner, orders=orders)
        report = evaluate(score_matrix(model, test.features), ps_test, kind)
        rows.append((x, report.auc, report.fairness))
        print(f"sweep x={x:g}: auc={report.auc:.4f} fairness={_shown(report.fairness)}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with (cfg.out_dir / "sweep.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "auc", "fairness"])
        for x, a, f in rows:
            writer.writerow([repr(float(x)), repr(a), "" if f is None else repr(f)])
    print(f"wrote {cfg.out_dir / 'sweep.csv'}")


def cmd_evaluate(cfg: RunConfig) -> None:
    model_path = cfg.out_dir / "model.json"
    if not model_path.exists():
        raise ValidationError(f"missing model artifact {model_path}; run `fairpair train` first")
    model, splits = load_model(model_path), split_queries(_load_dataset(cfg), **cfg.split)
    _write_reports(model, splits, cfg.constraint, cfg.out_dir)


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
