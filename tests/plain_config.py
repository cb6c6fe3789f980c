"""The config loader that cli.load_config replaced, kept as a test oracle.

``plain_load_config`` applies each flag beside the key it overrides and
ignores unknown top-level keys and unknown keys of a CSV ``dataset`` block;
``cli.load_config`` applies the flags to the document first, then checks
every key once, and rejects every unknown key.  On every config that both
accept they resolve the same run.
"""

import argparse
import json
import os
from dataclasses import dataclass
from pathlib import Path

from fairpair.constraints import ConstraintKind
from fairpair.errors import ValidationError, require_types
from fairpair.reweight import FairTrainConfig
from fairpair.training import TrainConfig

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
class PlainRunConfig:
    """Resolved knobs for one experiment run, in separate fields."""

    csv_path: Path | None
    csv_K: int | None
    synth: dict | None
    constraint: ConstraintKind
    point_constraint: ConstraintKind
    method: str
    ratio_test: float
    ratio_valid: float
    split_seed: int
    fair: FairTrainConfig
    sweep_scales: list[float]
    out_dir: Path


def _object(value, where: str, names) -> dict:
    """A copy of one config object whose keys are all among ``names``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in names:
            raise ValidationError(f"unknown config key {where}.{key}")
    return dict(value)


def _checked_block(value, where: str, ints=(), floats=(), defaults=None) -> dict:
    """Check one config object: known keys only, required keys present, and
    integer or finite-number values.  Returns the values with defaults filled in."""
    names = (*ints, *floats)
    block = {**(defaults or {}), **_object(value, where, names)}
    for key in names:
        if key not in block:
            raise ValidationError(f"config key {where}.{key} is required")
    require_types(
        {f"{where}.{key}": v for key, v in block.items()},
        ints=[f"{where}.{key}" for key in ints],
        floats=[f"{where}.{key}" for key in floats],
    )
    return block


def plain_load_config(path, args: argparse.Namespace) -> PlainRunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
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
    if not isinstance(constraint_name, str) or constraint_name not in PAIR_KINDS:
        raise ValidationError(f"unknown constraint {constraint_name!r}")
    point_name = doc.get("point_constraint", "equal_opportunity")
    if not isinstance(point_name, str) or point_name not in POINT_KINDS:
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

    train_doc = _object(doc.get("train", {}), "train", vars(TrainConfig()))
    if args.seed is not None:
        train_doc["seed"] = args.seed
    train_cfg = TrainConfig(**train_doc)

    fair_doc = _object(doc.get("fair", {}), "fair", vars(FairTrainConfig()).keys() - {"inner"})
    if args.T is not None:
        fair_doc["T"] = args.T
    fair_cfg = FairTrainConfig(inner=train_cfg, **fair_doc)

    out_dir = args.out or os.environ.get("FAIRPAIR_OUT") or doc.get("out_dir")
    if not out_dir:
        raise ValidationError("no output directory: set out_dir, FAIRPAIR_OUT, or --out")
    if not isinstance(out_dir, str):
        raise ValidationError(f"out_dir must be a path string, got {out_dir!r}")

    return PlainRunConfig(
        csv_path=Path(source["csv"]) if synth is None else None,
        csv_K=source["K"] if synth is None else None,
        synth=synth,
        constraint=PAIR_KINDS[constraint_name],
        point_constraint=POINT_KINDS[point_name],
        method=method,
        ratio_test=float(split["ratio_test"]),
        ratio_valid=float(split["ratio_valid"]),
        split_seed=split["seed"],
        fair=fair_cfg,
        sweep_scales=[float(x) for x in scales],
        out_dir=Path(out_dir),
    )
