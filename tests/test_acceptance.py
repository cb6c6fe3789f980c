"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 7 and 8 exercise the pinned synthetic regression through
the real CLI; their reference values were computed once from this
implementation and are asserted with an absolute tolerance of 0.02.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    build_dataset,
    numeric_gradient,
    pair_feature_diff,
    pair_subset,
    random_dataset,
)
from constraint_oracle import pair_constraint_table, point_constraint_table
from enumeration import EnumeratedInstance, bias_correction_identity
from fairpair.cli import main
from fairpair.constraints import (
    ConstraintKind,
    compute_group_stats,
    compute_point_stats,
    pair_constraint_mask,
)
from fairpair.data import generate_synthetic, make_pairs, split_queries
from fairpair.evaluation import auc
from fairpair.model import LinearRankingModel, score_matrix
from fairpair.reweight import (
    Coefficients,
    DeltaMatrix,
    FairTrainConfig,
    fair_train,
    pair_weights,
    update_coefficients,
)
from fairpair.training import TrainConfig, batch_gradient, train_weighted
from ordered_pairs import fold, ordered_pairs, ordered_weights

STAT = ConstraintKind.PAIR_STATISTICAL

# Reference metrics of the pinned synthetic regression (criterion 7/8 config:
# K=2, bias 1.0, 40 queries x 30 items, seeds 7/13/17, T=20, eta=1).
PINNED = {
    "unconstrained": {"auc": 0.7024, "fairness": 0.7889},
    "pairwise": {"auc": 0.6680, "fairness": 0.9554},
    "pointwise": {"auc": 0.6858, "fairness": 0.9031},
}
PIN_TOL = 0.02


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def pinned_config(out_dir, method):
    return {
        "dataset": {
            "synth": {
                "n_queries": 40,
                "items_per_query": 30,
                "d": 5,
                "K": 2,
                "bias_strength": 1.0,
                "seed": 7,
            }
        },
        "constraint": "statistical",
        "method": method,
        "split": {"ratio_test": 0.2, "ratio_valid": 0.16, "seed": 13},
        "train": {"seed": 17},
        "fair": {"T": 20, "eta_lambda": 1.0},
        "sweep_scales": [0.0, 0.5, 1.0, 1.5, 2.0],
        "out_dir": str(out_dir),
    }


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """Train all three methods on the pinned config and sweep the pairwise run."""
    root = tmp_path_factory.mktemp("pinned")
    elapsed = {}
    for method, name in (
        ("unconstrained", "unconstrained"),
        ("pairwise", "pairwise"),
        ("pointwise", "pointwise"),
    ):
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(pinned_config(root / name, method)))
        t0 = time.monotonic()
        assert main(["train", "--config", str(cfg_path)]) == 0
        elapsed[name] = time.monotonic() - t0
    t0 = time.monotonic()
    assert main(["sweep", "--config", str(root / "pairwise.json")]) == 0
    elapsed["sweep"] = time.monotonic() - t0
    return {"root": root, "elapsed": elapsed}


def _test_report(runs, name):
    return json.loads((runs["root"] / name / "eval_test.json").read_text())


def test_criterion_1_bias_correction_identity(rng):
    # >= 20 random enumerated instances with <= 8 feature pairs; both losses
    # must agree to 1e-10; total runtime under one second.
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(2, 9))
        K = int(rng.integers(2, 4))
        inst = EnumeratedInstance(
            mass=rng.dirichlet(np.ones(n)),
            true_pos=rng.uniform(0.05, 0.95, size=n),
            constraint_pos=rng.normal(size=(n, K, K)),
            predicted_pos=rng.uniform(0.05, 0.95, size=n),
        )
        coeffs = Coefficients(rng.normal(scale=0.8, size=(K, K)), STAT)
        for loss in ("cross_entropy", "squared"):
            lhs, rhs = bias_correction_identity(inst, coeffs, loss)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: weighted-objective identity on enumerated instances",
        worst < 1e-10 and elapsed < 1.0,
        f"worst |lhs-rhs|={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_weight_closed_form(rng):
    # 10^4 random (coefficients, ordered pair) draws: a label-1 pair weighs
    # sigmoid(s) and a label-0 pair 1 - sigmoid(s), where s is the
    # coefficient-weighted constraint sum of its cell, so the two label
    # weights of a group pair sum to 1.  The ordered pairs are the pair set's
    # pairs in both orientations, and pair_weights weighs each pair the mean
    # of its two ordered pairs' weights.
    worst_sum = 0.0
    worst_sig = 0.0
    mean_ok = True
    checked = 0
    while checked < 10_000:
        K = int(rng.integers(2, 5))
        ds, _ = generate_synthetic(2, 12, 3, K, 0.5, seed=int(rng.integers(1_000_000)))
        ps = make_pairs(ds)
        if not len(ps):
            continue
        stats = compute_group_stats(ps)
        mask = pair_constraint_mask(STAT, stats)
        ordered = ordered_pairs(ps)
        groups_i, groups_j, labels = np.unravel_index(ordered.cell, (K, K, 2))
        for _ in range(100):
            lam = rng.normal(scale=2.0, size=(K, K)) * mask
            coeffs = Coefficients(lam, STAT)
            weights = ordered_weights(coeffs, stats, ordered)
            mean_ok &= np.array_equal(pair_weights(coeffs, ps), fold(weights, ordered))
            t = int(rng.integers(len(ordered)))
            gi, gj, label = groups_i[t], groups_j[t], labels[t]
            s = sum(
                lam[k, l]
                * ((1.0 if (gi == k and gj == l) else 0.0) / stats.pair_frac[k, l] - 1.0)
                for k in range(K)
                for l in range(K)
                if mask[k, l]
            )
            sig = 1.0 / (1.0 + math.exp(-s)) if s >= 0 else math.exp(s) / (1.0 + math.exp(s))
            worst_sig = max(worst_sig, abs(weights[t] - (sig if label == 1 else 1.0 - sig)))
            mirror = np.flatnonzero((groups_i == gi) & (groups_j == gj) & (labels != label))
            if mirror.size:
                worst_sum = max(worst_sum, abs(weights[t] + weights[mirror[0]] - 1.0))
            checked += 1
    _report(
        "criterion 2: closed-form weight normalization and sigmoid identity",
        worst_sum < 1e-12 and worst_sig < 1e-12 and mean_ok,
        f"worst sum dev={worst_sum:.2e}, worst sigmoid dev={worst_sig:.2e}, "
        f"pair weight is the ordered mean={mean_ok}",
    )


def test_criterion_3_gradient_check(rng):
    # The minibatch gradient train_weighted steps on vs central finite
    # differences of weighted_loss over the same pairs.
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        ps = make_pairs(random_dataset(rng, n_queries=2, items_per_query=5, d=d))
        idx = rng.permutation(len(ps))[: int(rng.integers(1, len(ps) + 1))]
        weights = rng.uniform(0.1, 3.0, size=len(ps))
        w = rng.normal(size=d)
        # Gathered as train_weighted gathers a minibatch.
        x = np.take(pair_feature_diff(ps), idx, axis=0)
        analytic = batch_gradient(w, x, weights.take(idx))
        numeric = numeric_gradient(pair_subset(ps, idx), weights[idx], w)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
    _report(
        "criterion 3: analytic gradient matches finite differences",
        worst < 1e-6,
        f"worst relative error={worst:.2e}",
    )


def test_criterion_4_auc_oracle(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        feats = rng.integers(-2, 3, size=(n, 2)).astype(float)
        ds = build_dataset([("q", labels, [0] * n, feats)], d=2, K=1)
        model = LinearRankingModel(rng.integers(-2, 3, size=2).astype(float), 0.0)
        scores = ds.queries[0].features @ model.w
        total, count = 0.0, 0
        for i in range(n):
            for j in range(n):
                if labels[i] > labels[j]:
                    count += 1
                    if scores[i] > scores[j]:
                        total += 1.0
                    elif scores[i] == scores[j]:
                        total += 0.5
        worst = max(worst, abs(auc(score_matrix(model, ds.features), ds)[0] - total / count))

    ident = LinearRankingModel(np.asarray([1.0]), 0.0)
    perfect = build_dataset([("q", [1, 0], [0, 0], [[1.0], [0.0]])], d=1, K=1)
    reversed_ds = build_dataset([("q", [1, 0], [0, 0], [[0.0], [1.0]])], d=1, K=1)
    constant = build_dataset([("q", [1, 0], [0, 0], [[0.5], [0.5]])], d=1, K=1)
    exact = (
        auc(score_matrix(ident, perfect.features), perfect)[0] == 1.0
        and auc(score_matrix(ident, reversed_ds.features), reversed_ds)[0] == 0.0
        and auc(score_matrix(ident, constant.features), constant)[0] == 0.5
    )
    _report(
        "criterion 4: AUC equals brute-force pair counting",
        worst < 1e-12 and exact,
        f"worst deviation={worst:.2e}, exact specials={exact}",
    )


def test_criterion_5_constraint_identities(rng):
    # Read from the constraint tables: the label-proxied families are zero
    # on label-0 cells, the statistical constraint has mean zero over its own
    # ordered pairs, and the positive-pair proportions are consistent.
    zero_ok = True
    for _ in range(20):
        ds = random_dataset(rng, n_queries=4, items_per_query=6, K=3)
        stats = compute_group_stats(make_pairs(ds))
        for kind in (
            ConstraintKind.PAIR_INTER_GROUP,
            ConstraintKind.PAIR_INTRA_GROUP,
            ConstraintKind.PAIR_MARGINAL,
        ):
            zero_ok = zero_ok and np.all(pair_constraint_table(kind, stats)[..., 0::2] == 0.0)
        point_stats = compute_point_stats(ds)
        table = point_constraint_table(ConstraintKind.POINT_EQUAL_OPPORTUNITY, point_stats)
        zero_ok = zero_ok and np.all(table[:, 0::2] == 0.0)

    ds = random_dataset(rng, n_queries=5, items_per_query=8, K=3)
    ps = make_pairs(ds)
    stats = compute_group_stats(ps)
    mask = pair_constraint_mask(STAT, stats)
    means = pair_constraint_table(STAT, stats)[:, :, ordered_pairs(ps).cell].mean(axis=-1)
    worst_mean = float(np.max(np.abs(means[mask])))
    stats_dev = abs(stats.pos_pair_frac.sum() - stats.pos_frac)
    _report(
        "criterion 5: constraint identities",
        zero_ok and worst_mean < 1e-12 and stats_dev < 1e-12,
        f"label-0 zero={zero_ok}, worst statistical mean={worst_mean:.2e}, "
        f"proportion dev={stats_dev:.2e}",
    )


def test_criterion_6_fixed_point_and_t0(monkeypatch):
    ds, _ = generate_synthetic(16, 12, 4, 2, bias_strength=1.0, seed=3)
    train, valid, _ = split_queries(ds, 0.25, 0.15, seed=1)
    inner = TrainConfig(epochs=8, batch_size=64, seed=5)

    # T = 0 must be bit-identical to the unconstrained trainer.
    model_t0, coeffs_t0, _ = fair_train(train, valid, STAT, FairTrainConfig(T=0, inner=inner))
    ps = make_pairs(train)
    baseline = train_weighted(ps, np.full(len(ps), 0.5), inner)
    t0_ok = (
        np.array_equal(model_t0.w, baseline.w)
        and model_t0.b == baseline.b
        and np.all(coeffs_t0.values == 0.0)
    )

    # A zero violation must leave coefficients, weights, and model unchanged.
    zero_delta = DeltaMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
    coeffs = Coefficients(np.asarray([[0.0, 0.4], [-0.2, 0.0]]), STAT)
    stay = update_coefficients(coeffs, zero_delta, eta=1.0)
    update_ok = np.array_equal(stay.values, coeffs.values)

    import fairpair.reweight as rw

    real = rw.expected_bias

    def zeroed(model, ps_, kind_):
        delta = real(model, ps_, kind_)
        return rw.DeltaMatrix(np.zeros_like(delta.values), delta.defined)

    monkeypatch.setattr(rw, "expected_bias", zeroed)
    model_loop, coeffs_loop, _ = fair_train(train, valid, STAT, FairTrainConfig(T=3, inner=inner))
    loop_ok = np.array_equal(model_loop.w, model_t0.w) and np.all(coeffs_loop.values == 0.0)

    _report(
        "criterion 6: zero-violation fixed point and T=0 equivalence",
        t0_ok and update_ok and loop_ok,
        f"t0 bit-identical={t0_ok}, update fixed={update_ok}, loop fixed={loop_ok}",
    )


def test_criterion_7_pinned_regression(pinned_runs):
    unc = _test_report(pinned_runs, "unconstrained")
    fair = _test_report(pinned_runs, "pairwise")
    point = _test_report(pinned_runs, "pointwise")
    runtime = sum(pinned_runs["elapsed"][k] for k in ("unconstrained", "pairwise", "pointwise"))

    strict = fair["fairness"] > unc["fairness"] and fair["fairness"] > point["fairness"]
    pins_ok = all(
        abs(report[metric] - PINNED[name][metric]) <= PIN_TOL
        for name, report in (("unconstrained", unc), ("pairwise", fair), ("pointwise", point))
        for metric in ("auc", "fairness")
    )
    _report(
        "criterion 7: pinned synthetic regression",
        strict and pins_ok and runtime < 120.0,
        f"fairness unc={unc['fairness']:.4f} fair={fair['fairness']:.4f} "
        f"point={point['fairness']:.4f}, pins within {PIN_TOL}={pins_ok}, "
        f"runtime={runtime:.1f}s",
    )


def test_criterion_8_sweep_shape(pinned_runs):
    with (pinned_runs["root"] / "pairwise" / "sweep.csv").open() as fh:
        rows = [(float(r["x"]), float(r["auc"]), float(r["fairness"])) for r in csv.DictReader(fh)]
    xs = [r[0] for r in rows]
    best_auc_x = xs[max(range(len(rows)), key=lambda i: rows[i][1])]
    best_fair_x = xs[max(range(len(rows)), key=lambda i: rows[i][2])]
    runtime = pinned_runs["elapsed"]["sweep"]
    _report(
        "criterion 8: coefficient sweep shape",
        xs == [0.0, 0.5, 1.0, 1.5, 2.0]
        and best_fair_x == 1.0
        and best_auc_x == 0.0
        and runtime < 300.0,
        f"fairness peak at x={best_fair_x}, auc peak at x={best_auc_x}, "
        f"runtime={runtime:.1f}s",
    )


def test_criterion_9_determinism(pinned_runs, tmp_path):
    # Rerunning every command with identical config and seeds must give
    # byte-identical artifacts.
    rerun = tmp_path / "rerun"
    cfg = pinned_config(rerun, "pairwise")
    cfg_path = tmp_path / "rerun.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path)]) == 0

    first = pinned_runs["root"] / "pairwise"
    same = True
    for name in (
        "model.json",
        "history.csv",
        "coefficients.json",
        "eval_train.json",
        "eval_valid.json",
        "eval_test.json",
        "sweep.csv",
    ):
        same = same and (first / name).read_bytes() == (rerun / name).read_bytes()

    gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
    for target, name in ((gen_a, "gen_a.json"), (gen_b, "gen_b.json")):
        path = tmp_path / name
        path.write_text(json.dumps(pinned_config(target, "pairwise")))
        assert main(["generate", "--config", str(path)]) == 0
    same_gen = (gen_a / "dataset.csv").read_bytes() == (gen_b / "dataset.csv").read_bytes() and (
        gen_a / "truth.csv"
    ).read_bytes() == (gen_b / "truth.csv").read_bytes()

    _report(
        "criterion 9: byte-identical reruns",
        same and same_gen,
        f"train+sweep identical={same}, generate identical={same_gen}",
    )
