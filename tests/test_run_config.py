"""cli.load_config against the loader it replaced (tests/plain_config.py):
on every config both accept, with every combination of flags and with
FAIRPAIR_OUT set or not, they resolve the same run."""

import itertools
import json
from pathlib import Path

import pytest

from fairpair import cli
from fairpair.constraints import ConstraintKind
from plain_config import PAIR_KINDS as PLAIN_PAIR_KINDS
from plain_config import plain_load_config

SYNTH = {"n_queries": 40, "items_per_query": 30, "d": 5, "K": 2, "bias_strength": 1.0, "seed": 7}
CSV = {"csv": "data/queries.csv", "K": 3}
# Every block at explicit values, none at its default; "integers" writes
# each float key that takes an integer as one.
EXPLICIT = {
    "constraint": "inter",
    "point_constraint": "statistical",
    "method": "pointwise",
    "split": {"ratio_test": 0.25, "ratio_valid": 0.1, "seed": 4},
    "train": {"learning_rate": 0.05, "beta1": 0.8, "beta2": 0.99, "eps_adam": 1e-7,
              "epochs": 3, "batch_size": 64, "seed": 11},
    "fair": {"eta_lambda": 0.5, "T": 4, "weight_form": "indicator",
             "delta_set": "validation", "warm_start": True},
    "sweep_scales": [0.0, 2.5],
}
INTEGERS = {
    "split": {"ratio_test": 0, "ratio_valid": 0, "seed": 0},
    "train": {"learning_rate": 1, "beta1": 0, "beta2": 0},
    "fair": {"eta_lambda": 2},
    "sweep_scales": [0, 1, 3],
}
FLAGS = {
    "--constraint": "marginal",
    "--method": "unconstrained",
    "--out": "flagged",
    "--seed": "23",
    "--T": "6",
}


def resolved(cfg):
    """What a run reads of a cli.RunConfig, in the old loader's fields."""
    dataset = cfg.dataset
    csv_path = Path(dataset["csv"]) if "csv" in dataset else None
    return (csv_path, dataset.get("K"), dataset.get("synth"), cfg.constraint,
            cfg.point_constraint, cfg.method, cfg.split, cfg.fair, cfg.sweep_scales, cfg.out_dir)


def plain_resolved(cfg):
    split = {"ratio_test": cfg.ratio_test, "ratio_valid": cfg.ratio_valid, "seed": cfg.split_seed}
    return (cfg.csv_path, cfg.csv_K, cfg.synth, cfg.constraint, cfg.point_constraint,
            cfg.method, split, cfg.fair, cfg.sweep_scales, cfg.out_dir)


@pytest.mark.parametrize("env", [None, "from_env"])
@pytest.mark.parametrize("values", [{}, EXPLICIT, INTEGERS], ids=["defaults", "explicit", "integers"])
@pytest.mark.parametrize("source", [{"synth": SYNTH}, CSV], ids=["synth", "csv"])
def test_resolves_as_the_plain_loader(tmp_path, monkeypatch, source, values, env):
    if env is None:
        monkeypatch.delenv("FAIRPAIR_OUT", raising=False)
    else:
        monkeypatch.setenv("FAIRPAIR_OUT", env)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": source, **values, "out_dir": "runs/x"}))
    parser = cli.build_parser()
    for chosen in itertools.product((False, True), repeat=len(FLAGS)):
        argv = ["train", "--config", str(path)]
        for (flag, value), on in zip(FLAGS.items(), chosen):
            argv += [flag, value] * on
        args = parser.parse_args(argv)
        new, old = resolved(cli.load_config(path, args)), plain_resolved(plain_load_config(path, args))
        assert new == old, argv


def test_pair_kinds_are_the_enum_values():
    assert cli.PAIR_KINDS == PLAIN_PAIR_KINDS
    assert all(kind.is_pairwise for kind in cli.PAIR_KINDS.values())
    assert len(cli.PAIR_KINDS) == sum(kind.is_pairwise for kind in ConstraintKind)
