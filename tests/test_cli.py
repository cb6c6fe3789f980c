"""End-to-end tests for the command-line front end."""

import csv
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import cli, constraints
from fairpair.cli import main
from fairpair.data import (
    Dataset,
    generate_synthetic,
    load_csv,
    make_pairs,
    save_csv,
    split_queries,
)
from fairpair.errors import ValidationError


MISSING = object()  # a config key left out


def base_config(out_dir, **top_level):
    doc = {
        "dataset": {
            "synth": {
                "n_queries": 12,
                "items_per_query": 10,
                "d": 3,
                "K": 2,
                "bias_strength": 1.0,
                "seed": 5,
            }
        },
        "constraint": "statistical",
        "method": "pairwise",
        "split": {"ratio_test": 0.25, "ratio_valid": 0.15, "seed": 3},
        "train": {"epochs": 4, "batch_size": 64, "seed": 9},
        "fair": {"T": 2},
        "sweep_scales": [0.0, 1.0],
        "out_dir": str(out_dir),
    }
    doc.update(top_level)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["generate", "--config", cfg]) == 0
        loaded = load_csv(out / "dataset.csv", declared_K=2)
        direct, truth = generate_synthetic(12, 10, 3, 2, 1.0, seed=5)
        for qa, qb in zip(loaded.queries, direct.queries):
            assert qa.query_id == qb.query_id
            np.testing.assert_array_equal(qa.features, qb.features)
            np.testing.assert_array_equal(qa.labels, qb.labels)
            np.testing.assert_array_equal(qa.groups, qb.groups)
        truth_rows = (out / "truth.csv").read_text().strip().splitlines()
        assert truth_rows[0] == "query_id,y_true"
        assert len(truth_rows) == 1 + direct.n_items

    def test_reports_query_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--config", write_config(tmp_path, base_config(out))]) == 0
        assert f"wrote {out / 'dataset.csv'} (12 queries, d=3, K=2)" in capsys.readouterr().out

    def test_seed_changes_bytes(self, tmp_path):
        doc = base_config(tmp_path / "a")
        cfg_a = write_config(tmp_path, doc, "a.json")
        doc_b = base_config(tmp_path / "b")
        doc_b["dataset"]["synth"]["seed"] = 6
        cfg_b = write_config(tmp_path, doc_b, "b.json")
        assert main(["generate", "--config", cfg_a]) == 0
        assert main(["generate", "--config", cfg_b]) == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != (
            tmp_path / "b" / "dataset.csv"
        ).read_bytes()

    def test_degenerate_counts_fail_validation(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["dataset"]["synth"]["items_per_query"] = 0
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "--config", cfg]) == 1

    def test_generate_requires_synth_source(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["dataset"] = {"csv": "whatever.csv", "K": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "--config", cfg]) == 1


class TestTrain:
    def test_writes_artifacts_and_reports(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        for name in (
            "model.json",
            "history.csv",
            "coefficients.json",
            "eval_train.json",
            "eval_valid.json",
            "eval_test.json",
        ):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().strip().splitlines()
        assert len(history) == 3  # header + T rows
        report = json.loads((out / "eval_test.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0

    def test_unconstrained_equals_pairwise_t0(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, base_config(out_a), "a.json")
        cfg_b = write_config(tmp_path, base_config(out_b), "b.json")
        assert main(["train", "--config", cfg_a, "--method", "unconstrained"]) == 0
        assert main(["train", "--config", cfg_b, "--method", "pairwise", "--T", "0"]) == 0
        for name in ("model.json", "history.csv", "eval_test.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_history_agrees_with_reports(self, tmp_path):
        # The last outer iteration's model is the one saved and reported, and
        # its history row is measured by the same evaluate as the reports.
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        with (out / "history.csv").open(newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        for split, column in (("train", "train"), ("valid", "eval")):
            report = json.loads((out / f"eval_{split}.json").read_text())
            assert float(last[f"auc_{column}"]) == report["auc"]
            assert float(last[f"fairness_{column}"]) == report["fairness"]

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, base_config(out_a), "a.json")
        cfg_b = write_config(tmp_path, base_config(out_b), "b.json")
        assert main(["train", "--config", cfg_a]) == 0
        assert main(["train", "--config", cfg_b]) == 0
        for name in ("model.json", "history.csv", "coefficients.json", "eval_test.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_weight_underflow_is_validation_error(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run", constraint="inter")
        doc["dataset"]["synth"].update(n_queries=40, items_per_query=30, d=5, seed=7)
        doc["train"]["epochs"] = 2
        doc["fair"].update(T=5, eta_lambda=1e4)
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "outer iteration 1 with eta_lambda=10000.0" in err
        assert "pair weight of cell (k=" in err and "is 0.0" in err

    def test_pointwise_method(self, tmp_path):
        out = tmp_path / "pw"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg, "--method", "pointwise"]) == 0
        assert (out / "model.json").exists()
        assert not (out / "history.csv").exists()

    def test_csv_dataset_source(self, tmp_path):
        gen_out = tmp_path / "gen"
        gen_cfg = write_config(tmp_path, base_config(gen_out), "gen.json")
        assert main(["generate", "--config", gen_cfg]) == 0
        doc = base_config(tmp_path / "run2")
        doc["dataset"] = {"csv": str(gen_out / "dataset.csv"), "K": 2}
        cfg = write_config(tmp_path, doc, "csvrun.json")
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "run2" / "model.json").exists()

    def test_non_utf8_dataset_named(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        assert main(["generate", "--config", write_config(tmp_path, base_config(gen_out))]) == 0
        data = gen_out / "dataset.csv"
        data.write_bytes(data.read_bytes().replace(b"\nq3,", b"\nq\xff3,", 1))
        doc = base_config(tmp_path / "run")
        doc["dataset"] = {"csv": str(data), "K": 2}
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, doc, "csv.json")]) == 1
        err = capsys.readouterr().err
        assert str(data) in err and "UTF-8" in err

    @pytest.mark.parametrize("where", ["header", "past_first_chunk", "quoted_id"])
    def test_non_utf8_byte_anywhere_named(self, tmp_path, capsys, where):
        # A byte that does not decode is a ValidationError naming the file
        # wherever the loader meets it: in the header (read by csv.reader),
        # past the first 64 KB chunk that the np.loadtxt pass reads, and in a
        # file whose quoted id leaves the whole body to the row parser.
        rows = [f"q{n // 10},{n % 2},{n % 2 ^ n // 10 % 2},0.{n:08d}\n" for n in range(5000)]
        if where == "quoted_id":
            rows[0] = '"q0"' + rows[0][2:]
        header = "query_id,group,label,f0\n"
        clean = (header + "".join(rows)).encode()
        # Inside f0, or inside the id of row 4000, about 80 KB in.
        at = clean.index(b"f0") + 1 if where == "header" else len(header + "".join(rows[:4000])) + 1
        assert where == "header" or at > 1 << 16
        data = tmp_path / "data.csv"
        data.write_bytes(clean)
        assert load_csv(data, declared_K=2).n_items == 5000
        data.write_bytes(clean[:at] + b"\xff" + clean[at:])
        with pytest.raises(ValidationError, match="is not UTF-8 text") as info:
            load_csv(data, declared_K=2)
        assert str(data) in str(info.value)
        doc = base_config(tmp_path / "run")
        doc["dataset"] = {"csv": str(data), "K": 2}
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, doc, "csv.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset {data} is not UTF-8 text: ")

    def test_field_over_csv_limit_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        long_field = "0." + "0" * 200_000
        data.write_text(f"query_id,group,label,f0\nq1,0,1,0.5\nq1,1,0,{long_field}\n",
                        encoding="utf-8")
        doc = base_config(tmp_path / "run")
        doc["dataset"] = {"csv": str(data), "K": 2}
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, doc, "csv.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: field larger than field limit (131072)\n"


class TestSweep:
    def test_missing_coefficients_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "nowhere"))
        assert main(["sweep", "--config", cfg]) == 1

    def test_endpoints_reproduce_train_runs(self, tmp_path):
        out_pair = tmp_path / "pair"
        out_unc = tmp_path / "unc"
        cfg_pair = write_config(tmp_path, base_config(out_pair), "pair.json")
        cfg_unc = write_config(tmp_path, base_config(out_unc), "unc.json")
        assert main(["train", "--config", cfg_pair]) == 0
        assert main(["train", "--config", cfg_unc, "--method", "unconstrained"]) == 0
        assert main(["sweep", "--config", cfg_pair]) == 0

        with (out_pair / "sweep.csv").open() as fh:
            rows = {float(r["x"]): r for r in csv.DictReader(fh)}
        unc = json.loads((out_unc / "eval_test.json").read_text())
        pair = json.loads((out_pair / "eval_test.json").read_text())
        assert float(rows[0.0]["auc"]) == unc["auc"]
        assert float(rows[0.0]["fairness"]) == unc["fairness"]
        assert float(rows[1.0]["auc"]) == pair["auc"]
        assert float(rows[1.0]["fairness"]) == pair["fairness"]

    def test_builds_test_pairs_once(self, tmp_path, monkeypatch):
        # Every scale is scored on one test pair set and its statistics: a
        # 5-scale sweep builds those of the training and test splits, 2 of
        # each, where one evaluate call per scale built 6.
        doc = base_config(tmp_path / "run", sweep_scales=[0.0, 0.5, 1.0, 1.5, 2.0])
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 0
        calls = {"make_pairs": 0, "compute_group_stats": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for module in (cli, constraints):
            for name in calls:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert main(["sweep", "--config", cfg]) == 0
        assert calls == {"make_pairs": 2, "compute_group_stats": 2}

    def test_test_split_without_pairs_fails_before_training(self, tmp_path, monkeypatch, capsys):
        # A test split whose queries hold one label each is named in the
        # error, before any scale is trained.
        ds, _ = generate_synthetic(12, 10, 3, 2, 1.0, seed=5)
        _, _, test = split_queries(ds, 0.25, 0.15, seed=3)
        for q in test.query_ids:
            q_index = ds.query_ids.index(q)
            ds.labels[ds.offsets[q_index] : ds.offsets[q_index + 1]] = 1
        save_csv(ds, tmp_path / "data.csv")
        doc = base_config(tmp_path / "run")
        doc["dataset"] = {"csv": str(tmp_path / "data.csv"), "K": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 0
        assert not (tmp_path / "run" / "eval_test.json").exists()
        trainings = []
        monkeypatch.setattr(cli, "train_weighted", lambda *a, **k: trainings.append(a))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: test set has no discordant pairs\n"
        assert trainings == [] and not (tmp_path / "run" / "sweep.csv").exists()

    def test_training_split_without_pairs_named(self, tmp_path, capsys):
        # train cannot run on such a split, so the coefficients are written
        # by hand; the sweep names the split rather than its empty statistics.
        ds, _ = generate_synthetic(12, 10, 3, 2, 1.0, seed=5)
        train, _, _ = split_queries(ds, 0.25, 0.15, seed=3)
        for i, q in enumerate(train.query_ids):
            q_index = ds.query_ids.index(q)
            ds.labels[ds.offsets[q_index] : ds.offsets[q_index + 1]] = i % 2
        save_csv(ds, tmp_path / "data.csv")
        doc = base_config(tmp_path / "run")
        doc["dataset"] = {"csv": str(tmp_path / "data.csv"), "K": 2}
        cfg = write_config(tmp_path, doc)
        (tmp_path / "run").mkdir()
        coeffs = {"kind": "statistical", "K": 2, "values": [0.0, 0.5, -0.5, 0.0]}
        (tmp_path / "run" / "coefficients.json").write_text(json.dumps(coeffs))
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: training set has no discordant pairs\n"
        assert not (tmp_path / "run" / "sweep.csv").exists()

    @staticmethod
    def trained_run(tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        return cfg, out / "coefficients.json"

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "statistical", "K": 2, "val',
            "[]",
            "{}",
            '{"kind": "statistical", "K": 2, "values": ["0", "0.5", "-0.5", "0"]}',
            '{"kind": "statistical", "K": 2.0, "values": [0.0, 0.5, -0.5, 0.0]}',
        ],
    )
    def test_corrupt_coefficients_named(self, tmp_path, capsys, text):
        cfg, path = self.trained_run(tmp_path)
        path.write_text(text)
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 1
        assert str(path) in capsys.readouterr().err

    def test_coefficients_for_other_K_rejected(self, tmp_path, capsys):
        cfg, path = self.trained_run(tmp_path)
        doc = json.loads(path.read_text())
        doc.update(K=3, values=[0.5] * 9)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 1
        assert "K=3" in capsys.readouterr().err
        assert not (tmp_path / "run" / "sweep.csv").exists()

    def test_coefficients_for_other_kind_rejected(self, tmp_path, capsys):
        cfg, path = self.trained_run(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--constraint", "inter"]) == 1
        assert "'statistical'" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_missing_model_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "none"))
        assert main(["evaluate", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"d": 3, "w": [0.1, 0.2',
            '{"d": 3}',
            '{"d": 1, "w": ["x"], "b": 0}',
            '{"d": 3, "w": ["0.1", "0.2", "0.3"], "b": "0.5"}',
            '{"d": 3, "w": [true, 0.0, 1.0], "b": false}',
            '{"d": 3.0, "w": [0.1, 0.2, 0.3], "b": 0.0}',
        ],
    )
    def test_corrupt_model_named(self, tmp_path, capsys, text):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        out.mkdir()
        (out / "model.json").write_text(text)
        assert main(["evaluate", "--config", cfg]) == 1
        assert str(out / "model.json") in capsys.readouterr().err

    def test_model_of_other_dimension_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, base_config(out))]) == 0
        doc = base_config(out)
        doc["dataset"]["synth"]["d"] = 4
        capsys.readouterr()
        assert main(["evaluate", "--config", write_config(tmp_path, doc, "d4.json")]) == 1
        err = capsys.readouterr().err
        assert "model dimension 3" in err and "dimension 4" in err

    def test_non_finite_scores_rejected(self, tmp_path, capsys):
        # Finite weights can overflow the scores; measured, they give NaN
        # fairness and deltas, which a report cannot hold (NaN is not JSON).
        out = tmp_path / "run"
        doc = base_config(out)
        doc["dataset"]["synth"].update(n_queries=20, items_per_query=10)
        out.mkdir()
        (out / "model.json").write_text(json.dumps({"d": 3, "w": [1e308] * 3, "b": 0.0}))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["evaluate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not list(out.glob("eval_*.json"))

    def test_rewrites_reports(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        before = (out / "eval_test.json").read_bytes()
        (out / "eval_test.json").unlink()
        assert main(["evaluate", "--config", cfg]) == 0
        assert (out / "eval_test.json").read_bytes() == before


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=6), max_size=5))
def test_has_pairs_matches_per_query_sums(labels):
    # A split gets a report when its pair set is not empty: when one of its
    # queries holds both labels, counted from the offsets, not from query views.
    offsets = np.cumsum([0, *map(len, labels)], dtype=np.int64)
    flat = np.array([lab for query in labels for lab in query], dtype=np.int64)
    ds = Dataset([f"q{i}" for i in range(len(labels))], offsets, np.zeros((flat.size, 1)),
                 flat, np.zeros_like(flat), 1)
    assert (len(make_pairs(ds)) > 0) is any(0 < int(q.labels.sum()) < len(q) for q in ds.queries)


class TestDatasetLifetime:
    """The unsplit dataset is dropped once split: only the splits live on
    through training and the reports."""

    @staticmethod
    def watch_loaded(monkeypatch):
        refs = []
        real = cli._load_dataset

        def loading(cfg):
            ds = real(cfg)
            refs.append(weakref.ref(ds))
            return ds

        monkeypatch.setattr(cli, "_load_dataset", loading)
        return refs

    @staticmethod
    def check_dead_at(monkeypatch, name, refs, seen):
        real = getattr(cli, name)

        def checked(*args, **kwargs):
            seen.append(len(refs) == 1 and refs[0]() is None)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, checked)

    @pytest.mark.parametrize(
        "method,entry",
        [("pairwise", "fair_train"), ("unconstrained", "fair_train"),
         ("pointwise", "pointwise_reweight_train")],
    )
    def test_train_drops_the_dataset_before_training(self, tmp_path, monkeypatch, method, entry):
        refs, seen = self.watch_loaded(monkeypatch), []
        self.check_dead_at(monkeypatch, entry, refs, seen)
        cfg = write_config(tmp_path, base_config(tmp_path / "run", method=method))
        assert main(["train", "--config", cfg]) == 0
        assert seen == [True]

    def test_evaluate_drops_the_dataset_before_the_first_report(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        refs, seen = self.watch_loaded(monkeypatch), []
        self.check_dead_at(monkeypatch, "evaluate", refs, seen)
        assert main(["evaluate", "--config", cfg]) == 0
        assert seen and seen[0]

    def test_sweep_drops_the_dataset_before_training(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        refs, seen = self.watch_loaded(monkeypatch), []
        self.check_dead_at(monkeypatch, "train_weighted", refs, seen)
        assert main(["sweep", "--config", cfg]) == 0
        assert seen and all(seen)


class TestConfigHandling:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 1

    def test_non_utf8_config_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps(base_config(tmp_path / "out")).encode().replace(b"out", b"\xff", 1))
        assert main(["train", "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_both_sources_rejected(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["dataset"]["csv"] = "x.csv"
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1

    def test_unknown_method_rejected(self, tmp_path):
        doc = base_config(tmp_path / "out", method="magic")
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1

    def test_unknown_train_key_rejected(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["train"]["momentum"] = 0.9
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "batch_size", 64.0),
            ("train", "epochs", True),
            ("train", "epochs", "4"),
            ("train", "seed", 1.5),
            ("train", "learning_rate", float("nan")),
            ("train", "beta2", float("inf")),
            ("train", "eps_adam", False),
            ("fair", "T", 2.0),
            ("fair", "T", False),
            ("fair", "eta_lambda", float("-inf")),
            ("fair", "eta_lambda", 10**400),
            ("fair", "warm_start", "false"),
        ],
    )
    def test_config_value_types_checked(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "out")
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    @pytest.mark.parametrize(
        "path,value,key",
        [
            (("split", "ratio_test"), "abc", "split.ratio_test"),
            (("split", "ratio_test"), float("nan"), "split.ratio_test"),
            (("split", "seed"), 1.7, "split.seed"),
            (("split", "ratio_tset"), 0.3, "split.ratio_tset"),
            (("split",), [0.25, 0.15], "split"),
            (("train",), "ab", "train"),
            (("fair",), [1, 2], "fair"),
            (("dataset",), {"csv": "x.csv", "K": "two"}, "dataset.K"),
            (("dataset",), {"csv": "x.csv", "K": 2.0}, "dataset.K"),
            (("dataset",), {"csv": None, "K": 2}, "dataset.csv"),
            (("sweep_scales",), "ab", "sweep_scales"),
            (("sweep_scales",), [0.0, "1"], "sweep_scales[1]"),
            (("dataset", "synth", "bias_strength"), MISSING, "dataset.synth.bias_strength"),
            (("dataset", "synth", "n_queries"), 12.5, "dataset.synth.n_queries"),
            (("dataset", "synth", "noise"), 0.1, "dataset.synth.noise"),
            (("train", "momentum"), 0.9, "unknown config key train.momentum"),
            (("fair", "inner"), {}, "unknown config key fair.inner"),
            (("constraint",), ["inter"], "constraint"),
            (("point_constraint",), [1], "point_constraint"),
            (("out_dir",), ["x"], "out_dir"),
            (("constrant",), "inter", "unknown config key constrant"),
            (("spilt",), {"seed": 1}, "unknown config key spilt"),
            (("dataset",), {"csv": "x.csv", "K": 2, "delimiter": ";"},
             "unknown config key dataset.delimiter"),
            (("dataset", "K"), 2, "unknown config key dataset.K"),
        ],
    )
    def test_bad_config_values_named(self, tmp_path, capsys, command, path, value, key):
        doc = base_config(tmp_path / "out")
        *parents, last = path
        block = doc
        for name in parents:
            block = block[name]
        if value is MISSING:
            del block[last]
        else:
            block[last] = value
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("K", [0, -1])
    def test_csv_K_below_one_rejected(self, tmp_path, capsys, K):
        # Rejected with the config, before the CSV (which does not exist) is read.
        doc = base_config(tmp_path / "out")
        doc["dataset"] = {"csv": str(tmp_path / "missing.csv"), "K": K}
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 1
        assert "dataset.K must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,command",
        [("split", "train"), ("train", "train"), (None, "generate"), (None, "train")],
    )
    def test_negative_seeds_rejected(self, tmp_path, capsys, section, command):
        doc = base_config(tmp_path / "out")
        (doc[section] if section else doc["dataset"]["synth"])["seed"] = -1
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_integer_float_values_accepted(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["train"]["learning_rate"] = 1
        doc["fair"]["eta_lambda"] = 2
        doc["sweep_scales"] = [0, 1]
        doc["dataset"]["synth"]["bias_strength"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 0

    @pytest.mark.parametrize(
        "path,value,flag",
        [
            (("constraint",), ["inter"], ["--constraint", "inter"]),
            (("method",), "magic", ["--method", "pairwise"]),
            (("train", "seed"), "9", ["--seed", "9"]),
            (("fair", "T"), -2, ["--T", "2"]),
            (("out_dir",), ["x"], ["--out", "{tmp}/flagged"]),
        ],
    )
    def test_flag_replaces_invalid_value(self, tmp_path, monkeypatch, path, value, flag):
        # A flag replaces the key it names before the key is checked.
        monkeypatch.delenv("FAIRPAIR_OUT", raising=False)
        doc = base_config(tmp_path / "out")
        *parents, last = path
        block = doc
        for name in parents:
            block = block[name]
        block[last] = value
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "--config", cfg]) == 1
        assert main(["generate", "--config", cfg, *(f.format(tmp=tmp_path) for f in flag)]) == 0

    def test_out_flag_overrides_config(self, tmp_path):
        doc = base_config(tmp_path / "ignored")
        cfg = write_config(tmp_path, doc)
        target = tmp_path / "flagged"
        assert main(["generate", "--config", cfg, "--out", str(target)]) == 0
        assert (target / "dataset.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_env_var_overrides_config(self, tmp_path, monkeypatch):
        doc = base_config(tmp_path / "ignored")
        cfg = write_config(tmp_path, doc)
        target = tmp_path / "from_env"
        monkeypatch.setenv("FAIRPAIR_OUT", str(target))
        assert main(["generate", "--config", cfg]) == 0
        assert (target / "dataset.csv").exists()

    def test_missing_out_dir_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FAIRPAIR_OUT", raising=False)
        doc = base_config(tmp_path / "x")
        del doc["out_dir"]
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "--config", cfg]) == 1

    def test_constraint_flag_applied(self, tmp_path):
        out = tmp_path / "marg"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg, "--constraint", "marginal"]) == 0
        report = json.loads((out / "eval_test.json").read_text())
        assert report["constraint_kind"] == "marginal"
