"""Differential and memory tests of the streaming CSV writers.

save_csv and save_truth_csv turn WRITE_BLOCK values of each column into
Python numbers at a time and format the rows with map; write_history_csv
joins the reprs of each iteration's values.  row_writers holds the per-row
csv.writer forms they replaced; every file must match them byte for byte,
whatever the query ids and wherever the block edges fall.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import data
from fairpair.data import Dataset, SynthTruth, generate_synthetic, save_csv, save_truth_csv
from fairpair.reweight import IterationRecord, write_history_csv
from row_writers import row_save_csv, row_save_truth_csv, row_write_history_csv

# The extreme doubles of test_columnar's saved-CSV test, and ids the csv
# module must quote, or that are not ASCII.
EXTREMES = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 2.5e-320]
AWKWARD_IDS = ["", "a,b", 'x"y', "l\nm", "r\rq", "é"]
BLOCK = 4


def make_dataset(rng, ids, sizes, d=3, K=3):
    """A dataset with the given query ids and sizes; its first features are EXTREMES."""
    offsets = np.cumsum([0, *sizes], dtype=np.int64)
    n = int(offsets[-1])
    features = rng.standard_normal((n, d))
    head = min(n * d, len(EXTREMES))
    features.ravel()[:head] = EXTREMES[:head]
    return Dataset(list(ids), offsets, features, rng.integers(0, 2, n), rng.integers(0, K, n), K)


def truth_of(ds):
    """A SynthTruth whose probabilities are the first feature column, query by query."""
    bounds = zip(ds.offsets[:-1].tolist(), ds.offsets[1:].tolist())
    return SynthTruth([ds.features[a:b, 0].copy() for a, b in bounds])


def assert_same_file(new, old):
    # Names the first difference: pytest's own diff of two large byte
    # strings can take minutes.
    a, b = new.read_bytes(), old.read_bytes()
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        line = a.count(b"\n", 0, at) + 1
        pytest.fail(f"{new.name} differs from {old.name} on line {line}: "
                    f"{a[at:at + 30]!r} against {b[at:at + 30]!r}")


def assert_same_bytes(ds, truth, tmp):
    tmp = Path(tmp)
    save_csv(ds, tmp / "new.csv")
    row_save_csv(ds, tmp / "old.csv")
    assert_same_file(tmp / "new.csv", tmp / "old.csv")
    save_truth_csv(truth, ds, tmp / "new_truth.csv")
    row_save_truth_csv(truth, ds, tmp / "old_truth.csv")
    assert_same_file(tmp / "new_truth.csv", tmp / "old_truth.csv")


# Query sizes: one row, exactly one block, a ragged tail after several
# blocks, and blocks whose edges fall inside queries.
SHAPES = {
    "one-row": [1],
    "one-block": [BLOCK],
    "one-block-of-queries": [1, 2, 1],
    "ragged-tail": [BLOCK, 3, BLOCK + 1, 2 * BLOCK + 1, 1, 5],
}


@pytest.mark.parametrize("sizes", SHAPES.values(), ids=SHAPES.keys())
def test_matches_row_writers_across_block_edges(rng, monkeypatch, tmp_path, sizes):
    monkeypatch.setattr(data, "WRITE_BLOCK", BLOCK)
    ids = (AWKWARD_IDS + [f"q{i}" for i in range(len(sizes))])[: len(sizes)]
    ds = make_dataset(rng, ids, sizes)
    assert_same_bytes(ds, truth_of(ds), tmp_path)


@pytest.mark.parametrize("n_rows", [data.WRITE_BLOCK, data.WRITE_BLOCK + 1, 3 * data.WRITE_BLOCK - 7])
def test_matches_row_writers_at_full_block_size(rng, tmp_path, n_rows):
    sizes = [n_rows // len(AWKWARD_IDS)] * (len(AWKWARD_IDS) - 1)
    ds = make_dataset(rng, AWKWARD_IDS, [*sizes, n_rows - sum(sizes)])
    assert_same_bytes(ds, truth_of(ds), tmp_path)


def test_generated_files_match_row_writers(tmp_path):
    ds, truth = generate_synthetic(40, 30, d=5, K=2, bias_strength=1.0, seed=3)
    assert_same_bytes(ds, truth, tmp_path)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matches_row_writers_on_random_datasets(draw):
    # Query ids drawn as in test_data's round-trip property: commas, quotes,
    # CR/LF, the empty id, non-ASCII.  Any doubles, NaN and infinities too.
    sizes = draw.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    ids = draw.draw(
        st.lists(
            st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                    max_size=4),
            min_size=len(sizes), max_size=len(sizes), unique=True,
        )
    )
    d = draw.draw(st.integers(1, 3))
    n = sum(sizes)
    values = st.floats() | st.sampled_from(EXTREMES)
    features = np.array(draw.draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = np.array(draw.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    groups = np.array(draw.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    ds = Dataset(ids, np.cumsum([0, *sizes], dtype=np.int64), features, labels, groups, 3)
    block = draw.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(data, "WRITE_BLOCK", block)
        assert_same_bytes(ds, truth_of(ds), tmp)


@pytest.mark.parametrize("K,T", [(1, 3), (2, 3), (12, 3), (3, 0)])
def test_history_matches_row_writer(rng, tmp_path, K, T):
    # At K=12 the cell names are padded, or (1, 11) and (11, 1) would clash;
    # the values take in EXTREMES, NaN, infinities and negative zero.  A
    # T=0 run writes the header alone.
    specials = np.array(EXTREMES + [np.nan, np.inf, -np.inf])
    history = []
    for t in range(1, T + 1):
        delta, coeffs = rng.standard_normal((2, K, K))
        delta.ravel()[: specials.size] = specials[: K * K]
        history.append(IterationRecord(t, 0.75, 1 / 3, -0.0, 0.1 * t, delta, coeffs))
    write_history_csv(history, K, tmp_path / "new.csv")
    row_write_history_csv(history, K, tmp_path / "old.csv")
    assert_same_file(tmp_path / "new.csv", tmp_path / "old.csv")


def save_csv_peak(n_queries, path):
    ds, _ = generate_synthetic(n_queries, 60, d=5, K=2, bias_strength=1.0, seed=5)
    tracemalloc.start()
    try:
        save_csv(ds, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_csv_peak_does_not_grow_with_the_rows(tmp_path):
    # The per-row writer built a view per query and peaked at 0.34 MiB at
    # 400 queries and 0.96 MiB at 1600; the blocks hold about 0.33 MiB at both.
    small = save_csv_peak(400, tmp_path / "small.csv")
    large = save_csv_peak(1600, tmp_path / "large.csv")
    assert large <= small + 64 * 1024
