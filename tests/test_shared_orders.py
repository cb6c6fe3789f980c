"""The trainer's epoch orders, drawn once and shared by every training on
one pair set.

Every inner training of fair_train, and every training of sweep, runs on
one pair set with one TrainConfig, so each would draw the same orders.
shared_epoch_orders draws them once; the runs must give the bits of a loop
in which every training draws its own (train_weighted without ``orders``;
for fair_train, test_reweight.py's plain_fair_train, with and without
warm start).  The guards at the end run fair_train, and the pointwise
baseline, under perfbench's tracer and check the counters the benchmark
reads.
"""

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import count_cell_passes, random_dataset
from fairpair import cli, reweight, training
from fairpair.cli import main
from fairpair.constraints import ConstraintKind
from fairpair.data import generate_synthetic, make_pairs, split_queries
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel
from fairpair.reweight import FairTrainConfig, fair_train, pointwise_reweight_train
from fairpair.training import (
    TrainConfig,
    epoch_orders,
    item_pairs,
    shared_epoch_orders,
    train_pointwise,
    train_weighted,
)
from test_cli import base_config, write_config

ROOT = Path(__file__).resolve().parents[1]
INTER = ConstraintKind.PAIR_INTER_GROUP


def load_tracing():
    """perfbench/tracing.py as a module, imported from its file."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drawn_each_time(row_i, row_j, n_rows, cfg):
    """Stand-in for shared_epoch_orders: every training draws its own orders."""
    return None


def counting_draws(monkeypatch):
    """Count the orders epoch_orders yields, through every caller."""
    draws = []
    real = training.epoch_orders

    def counted(n, cfg):
        for order in real(n, cfg):
            draws.append(n)
            yield order

    monkeypatch.setattr(training, "epoch_orders", counted)
    return draws


@pytest.mark.parametrize(
    "n,dtype",
    [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)],
)
def test_shared_orders_are_the_drawn_orders(n, dtype):
    # The orders' dtype holds the pair count; the rows', the row count.
    cfg = TrainConfig(epochs=2, seed=5)
    row_i = np.arange(n, dtype=np.int32)
    row_j = row_i[::-1] + np.int32(1)
    orders, rows_i, rows_j = shared_epoch_orders(row_i, row_j, n + 1, cfg)
    assert orders.dtype == dtype and orders.shape == (2, n)
    assert rows_i.dtype == rows_j.dtype == np.min_scalar_type(n)
    assert rows_i.shape == rows_j.shape == (2, n)
    assert not any(a.flags.writeable for a in (orders, rows_i, rows_j))
    rng = np.random.default_rng(cfg.seed)
    for row in orders:
        np.testing.assert_array_equal(row, rng.permutation(n))
    for e, drawn in enumerate(epoch_orders(n, cfg)):
        np.testing.assert_array_equal(orders[e], drawn)
        np.testing.assert_array_equal(rows_i[e], row_i[drawn])
        np.testing.assert_array_equal(rows_j[e], row_j[drawn])
    assert e == cfg.epochs - 1


def test_shared_orders_of_zero_epochs_or_pairs():
    rows = np.arange(5, dtype=np.int32)
    for row_i, epochs, shape in ((rows, 0, (0, 5)), (rows[:0], 3, (3, 0))):
        shared = shared_epoch_orders(row_i, row_i, 5, TrainConfig(epochs=epochs))
        assert [a.shape for a in shared] == [shape] * 3


@pytest.mark.parametrize(
    "cfg_kwargs",
    [
        {"epochs": 3, "batch_size": 17},
        {"epochs": 2, "batch_size": 10_000, "seed": 4},
        {"epochs": 0},
    ],
)
def test_train_weighted_on_shared_orders_matches_drawn(rng, cfg_kwargs):
    ps = make_pairs(random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3))
    weights = rng.uniform(0.05, 3.0, size=len(ps))
    cfg = TrainConfig(**cfg_kwargs)
    orders = shared_epoch_orders(ps.row_i, ps.row_j, ps.source.n_items, cfg)
    shared = train_weighted(ps, weights, cfg, orders=orders)
    drawn = train_weighted(ps, weights, cfg)
    assert shared.w.tobytes() == drawn.w.tobytes() and shared.b == drawn.b


def test_train_weighted_rejects_orders_of_another_shape(rng):
    ps = make_pairs(random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3))
    cfg = TrainConfig(epochs=3)
    rows = np.zeros(len(ps) + 1, np.int32)
    for epochs, n in ((2, len(ps)), (3, len(ps) + 1)):
        orders = shared_epoch_orders(rows[:n], rows[:n], 1, TrainConfig(epochs=epochs))
        with pytest.raises(ValidationError, match="orders of shape"):
            train_weighted(ps, np.ones(len(ps)), cfg, orders=orders)


@pytest.mark.parametrize("cfg_kwargs", [{"epochs": 3, "batch_size": 7}, {"epochs": 0}])
def test_train_pointwise_on_shared_orders_matches_drawn(rng, cfg_kwargs):
    ds = random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3)
    weights = rng.uniform(0.05, 3.0, size=ds.n_items)
    cfg = TrainConfig(**cfg_kwargs)
    init = LinearRankingModel(rng.normal(size=4), 0.25)
    shared = train_pointwise(ds, weights, cfg, init, shared_epoch_orders(*item_pairs(ds), cfg))
    drawn = train_pointwise(ds, weights, cfg, init)
    assert shared.w.tobytes() == drawn.w.tobytes() and shared.b == drawn.b


def test_train_pointwise_rejects_orders_of_another_shape(rng):
    ds = random_dataset(rng, n_queries=5, items_per_query=9, d=4, K=3)
    cfg = TrainConfig(epochs=3)
    row_i, row_j, n_rows = item_pairs(ds)
    for epochs, n in ((2, ds.n_items), (3, ds.n_items - 1)):
        orders = shared_epoch_orders(row_i[:n], row_j[:n], n_rows, TrainConfig(epochs=epochs))
        with pytest.raises(ValidationError, match=f"orders of shape .* epochs of {ds.n_items} items"):
            train_pointwise(ds, np.ones(ds.n_items), cfg, orders=orders)


@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("T", [0, 3])
def test_pointwise_run_draws_its_orders_once(monkeypatch, T, warm_start):
    # The T + 1 pointwise trainings draw cfg.inner.epochs orders in all,
    # where one draw a training made (T + 1) * epochs, and the model keeps
    # its bits.
    train, valid, cfg = guard_run()
    cfg = FairTrainConfig(T=T, inner=cfg.inner, warm_start=warm_start, delta_set="validation")
    kind = ConstraintKind.POINT_STATISTICAL
    drawn = counting_draws(monkeypatch)
    monkeypatch.setattr(reweight, "shared_epoch_orders", drawn_each_time)
    each = pointwise_reweight_train(train, valid, kind, cfg)
    assert len(drawn) == (T + 1) * cfg.inner.epochs
    monkeypatch.undo()
    draws = counting_draws(monkeypatch)
    shared = pointwise_reweight_train(train, valid, kind, cfg)
    assert draws == [train.n_items] * cfg.inner.epochs
    assert shared.w.tobytes() == each.w.tobytes() and shared.b == each.b


def test_sweep_on_shared_orders_matches_drawn(tmp_path, monkeypatch):
    doc = base_config(tmp_path / "run", sweep_scales=[0.0, 0.5, 1.0, 2.0])
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg]) == 0
    shared = (tmp_path / "run" / "sweep.csv").read_bytes()
    monkeypatch.setattr(cli, "shared_epoch_orders", drawn_each_time)
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "run" / "sweep.csv").read_bytes() == shared
    with (tmp_path / "run" / "sweep.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 5


def test_sweep_draws_its_orders_once(tmp_path, monkeypatch):
    doc = base_config(tmp_path / "run", sweep_scales=[0.0, 0.5, 1.0])
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 0
    draws = counting_draws(monkeypatch)
    assert main(["sweep", "--config", cfg]) == 0
    assert len(draws) == doc["train"]["epochs"]


def guard_run():
    """The traced guards' fair_train: K=8, inter, T=5 on a 24×16 dataset."""
    ds, _ = generate_synthetic(24, 16, d=3, K=8, bias_strength=1.0, seed=0)
    train, valid, _ = split_queries(ds, 0.2, 0.16, seed=1)
    inner = TrainConfig(epochs=3, batch_size=64, seed=2)
    return train, valid, FairTrainConfig(T=5, inner=inner, delta_set="validation")


def traced_fair_train(tracing, train, valid, cfg):
    """The tracer of one fair_train run under perfbench's tracing."""
    tracer = tracing.Tracer("guard")
    tracing.install(tracer)
    try:
        fair_train(train, valid, INTER, cfg)
    finally:
        tracer.restore()
    return tracer


def test_traced_fair_train_counts(monkeypatch):
    # What the benchmark reads of one fair_train: T + 1 train_weighted
    # spans, one Adam step a minibatch of every epoch of every training,
    # and the epoch orders drawn once, not once a training.
    tracing = load_tracing()
    train, valid, cfg = guard_run()
    inner = cfg.inner
    n = len(make_pairs(train))
    draws = counting_draws(monkeypatch)
    tracer = traced_fair_train(tracing, train, valid, cfg)
    metrics = tracing.layer_metrics(tracer)
    spans = [s for s in tracer.spans if s["name"] == "training.train_weighted"]
    assert len(spans) == metrics["training.train_weighted_calls"] == cfg.T + 1
    steps = (cfg.T + 1) * inner.epochs * math.ceil(n / inner.batch_size)
    assert tracer.counters["training.adam_update"] == metrics["training.adam_steps"] == steps
    assert draws == [n] * inner.epochs


def test_traced_fair_train_reads_each_pair_set_arrays():
    # perfbench's data.arrays_s times the first read of PairSet.arrays, the
    # cell column: fair_train builds its 2 pair sets, and reads the cells
    # of each (cached, so once), so the metric is never left at zero.
    tracing = load_tracing()
    tracer = traced_fair_train(tracing, *guard_run())
    names = [s["name"] for s in tracer.spans]
    assert names.count("data.make_pairs") == names.count("data.arrays") == 2
    assert tracing.layer_metrics(tracer)["data.arrays_s"] > 0


def test_traced_fair_train_measures_through_evaluate(monkeypatch):
    # Every history record is measured by evaluate on the train and eval
    # pairs, so perfbench's evaluation.evaluate_calls counts them: 2T spans,
    # each over one bias and one AUC.  The first delta is measured before
    # the loop, outside evaluate, and the 2 pair sets are built, and their
    # cells counted, once each.
    tracing = load_tracing()
    train, valid, cfg = guard_run()
    passes = count_cell_passes(monkeypatch)
    tracer = traced_fair_train(tracing, train, valid, cfg)
    names = [s["name"] for s in tracer.spans]
    evaluates = [s["id"] for s in tracer.spans if s["name"] == "evaluation.evaluate"]
    assert len(evaluates) == 2 * cfg.T
    for parent in evaluates:
        children = [s["name"] for s in tracer.spans if s["parent"] == parent]
        assert children.count("reweight.expected_bias") == children.count("evaluation.auc") == 1
    assert names.count("reweight.expected_bias") == 1 + 2 * cfg.T
    assert names.count("data.make_pairs") == len(passes) == 2


def test_traced_pointwise_run_counts_no_pairwise_training():
    # The pointwise trainer runs the pairwise Adam loop but not
    # train_weighted, so the benchmark's train_weighted_calls and
    # pair_epochs_per_s count pairwise trainings only; its steps count in
    # adam_steps, one a minibatch of items of every epoch of every training.
    tracing = load_tracing()
    train, valid, cfg = guard_run()
    inner = cfg.inner
    tracer = tracing.Tracer("guard")
    tracing.install(tracer)
    try:
        pointwise_reweight_train(train, valid, ConstraintKind.POINT_STATISTICAL, cfg)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer)
    names = [s["name"] for s in tracer.spans]
    assert names.count("training.train_weighted") == metrics["training.train_weighted_calls"] == 0
    steps = (cfg.T + 1) * inner.epochs * math.ceil(train.n_items / inner.batch_size)
    assert tracer.counters["training.adam_update"] == metrics["training.adam_steps"] == steps
