"""Inputs each layer rejects, one test a check, by the message that names it.

The rest of the suite reaches these checks' neighbours but not the checks
themselves; each case here makes its check the first to fail.
"""

import json

import numpy as np
import pytest

from conftest import build_dataset, random_dataset
from fairpair import cli
from fairpair.cli import main
from fairpair.constraints import ConstraintKind, compute_point_stats, point_constraint_mask
from fairpair.data import Dataset, load_csv, make_pairs
from fairpair.errors import ParseError, ValidationError
from fairpair.model import LinearRankingModel
from fairpair.reweight import Coefficients, FairTrainConfig, pair_weights, point_expected_bias
from fairpair.training import TrainConfig, train_pointwise
from test_cli import base_config, write_config

STAT = ConstraintKind.PAIR_STATISTICAL


class TestCli:
    def test_csv_source_needs_its_group_count(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["dataset"] = {"csv": str(tmp_path / "data.csv")}
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err == "error: dataset.csv requires a declared group count dataset.K\n"

    @pytest.mark.parametrize("text", ["[]", "3", '"run"', "null"])
    def test_config_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config {path} must hold a JSON object\n"

    @pytest.mark.parametrize("n_values", [3, 5])
    def test_coefficients_of_another_count_rejected(self, tmp_path, capsys, n_values):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        path = out / "coefficients.json"
        doc = json.loads(path.read_text())
        doc["values"] = [0.25] * n_values
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: coefficients file {path} must hold 4 finite values\n"
        assert not (out / "sweep.csv").exists()

    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("invariant breached")

        monkeypatch.setattr(cli, "cmd_train", broken)
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["train", "--config", cfg]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: invariant breached\n"


class TestData:
    @pytest.mark.parametrize("columns", [["f1", "f0"], ["f0", "g1"], ["x"], ["f0", "f1", "f3"]])
    def test_feature_columns_must_count_from_f0(self, tmp_path, columns):
        path = tmp_path / "data.csv"
        row = ",".join(["q", "0", "1"] + ["0.5"] * len(columns))
        path.write_text(",".join(["query_id", "group", "label", *columns]) + "\n" + row + "\n")
        msg = rf"^line 1: feature columns must be f0\.\.f{len(columns) - 1}; got "
        with pytest.raises(ParseError, match=msg):
            load_csv(path, 2)

    def test_pairs_beyond_int32_rows_rejected(self):
        # Read-only broadcast columns: 2**31 rows of one query, no memory.
        n = 2**31
        ds = Dataset(
            ["q"],
            np.array([0, n], dtype=np.int64),
            np.broadcast_to(0.0, (n, 1)),
            np.broadcast_to(np.int64(1), (n,)),
            np.broadcast_to(np.int64(0), (n,)),
            1,
        )
        with pytest.raises(ValidationError, match=rf"^{n} items is more than int32 pair"):
            make_pairs(ds)


class TestConstraints:
    def test_item_statistics_of_no_items(self):
        ds = Dataset([], np.zeros(1, dtype=np.int64), np.zeros((0, 2)),
                     np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 2)
        msg = "^cannot compute item statistics of an empty dataset$"
        with pytest.raises(ValidationError, match=msg):
            compute_point_stats(ds)

    @pytest.mark.parametrize("kind", [k for k in ConstraintKind if k.is_pairwise])
    def test_point_mask_needs_a_pointwise_kind(self, rng, kind):
        stats = compute_point_stats(random_dataset(rng))
        with pytest.raises(ValidationError, match="is not a pointwise constraint kind$"):
            point_constraint_mask(kind, stats)


class TestModel:
    @pytest.mark.parametrize("w", [np.zeros((2, 2)), np.float64(1.0), [[1.0], [2.0]]])
    def test_weights_must_be_a_vector(self, w):
        with pytest.raises(ValidationError, match="^model weights must be a 1-d vector$"):
            LinearRankingModel(w, 0.0)


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            ({"eta_lambda": 0.0}, "eta_lambda must be > 0"),
            ({"eta_lambda": -1.0}, "eta_lambda must be > 0"),
            ({"weight_form": "hinge"}, "unknown weight_form 'hinge'"),
            ({"delta_set": "test"}, "unknown delta_set 'test'"),
        ],
    )
    def test_fair_train_config(self, kwargs, msg):
        with pytest.raises(ValidationError, match=f"^{msg}$"):
            FairTrainConfig(**kwargs)

    @pytest.mark.parametrize("eps", [0.0, -1e-8])
    def test_adam_epsilon_must_be_positive(self, eps):
        with pytest.raises(ValidationError, match="^eps_adam must be > 0$"):
            TrainConfig(eps_adam=eps)


class TestReweight:
    def test_pair_weights_of_an_unknown_form(self, rng):
        ps = make_pairs(random_dataset(rng))
        with pytest.raises(ValidationError, match="^unknown weight_form 'hinge'$"):
            pair_weights(Coefficients.zeros(2, STAT), ps, "hinge")

    @pytest.mark.parametrize("kind", [k for k in ConstraintKind if k.is_pairwise])
    def test_point_bias_needs_a_pointwise_kind(self, rng, kind):
        ds = random_dataset(rng)
        with pytest.raises(ValidationError, match="is not a pointwise constraint kind$"):
            point_expected_bias(np.zeros(ds.n_items), ds, kind)


def test_pointwise_training_needs_items():
    ds = build_dataset([], d=2, K=2)
    with pytest.raises(ValidationError, match="^cannot train on an empty dataset$"):
        train_pointwise(ds, np.zeros(0), TrainConfig())
