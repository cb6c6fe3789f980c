"""Differential and memory tests of the chunked passes over a pair set.

make_pairs writes its rows query by query into preallocated columns, and
PairSet.arrays, PairSet.cell_counts (so compute_group_stats),
pair_weights and expected_bias walk a pair set PAIR_CHUNK pairs at a
time.  The whole_* functions below are copies of the single-pass forms
they replaced.  With PAIR_CHUNK set to 7 the pair sets span several
chunks with a ragged tail, and every result must match bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, pair_subset, random_dataset
from fairpair import data
from fairpair.constraints import ConstraintKind, compute_group_stats, constraint_bias
from fairpair.data import Dataset, generate_synthetic, make_pairs
from fairpair.errors import ValidationError
from fairpair.model import LinearRankingModel, score_matrix, stable_sigmoid
from fairpair.reweight import (
    Coefficients,
    FairTrainConfig,
    _pair_cell_weights,
    expected_bias,
    fair_train,
    pair_weights,
)
from fairpair.training import TrainConfig

PAIR_KINDS = [k for k in ConstraintKind if k.is_pairwise]
CHUNK = 7


def whole_make_pairs(ds):
    parts = [(np.zeros(0, dtype=np.int32),) * 2]
    for start, q in zip(ds.offsets[:-1].tolist(), ds.queries):
        lab = q.labels
        i, j = np.nonzero(lab[:, None] > lab[None, :])
        parts.append(((i + start).astype(np.int32), (j + start).astype(np.int32)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def whole_cell(ps):
    ds = ps.source
    cell_dtype = np.min_scalar_type(ds.K**2 - 1)
    cell = (ds.groups * ds.K).astype(cell_dtype)[ps.row_i]
    cell += ds.groups.astype(cell_dtype)[ps.row_j]
    return cell


def whole_cell_counts(ps):
    K = ps.source.K
    return np.bincount(whole_cell(ps), minlength=K * K).reshape(K, K)


def whole_group_stats(ps):
    """(pair_frac, pos_pair_frac, pos_frac) of compute_group_stats."""
    n, pos = 2 * len(ps), whole_cell_counts(ps)
    return (pos + pos.T) / n, pos / n, float(pos.sum() / n)


def whole_pair_weights(coeffs, stats, ps, weight_form):
    K = stats.K
    weights = _pair_cell_weights(coeffs, stats, weight_form).reshape(K, K, 2)
    return ((weights[..., 1] + weights[..., 0].T) / 2).ravel()[whole_cell(ps)]


def whole_expected_bias(model, ps, stats, kind):
    s = ps.source.features @ model.w
    z = s[ps.row_i]
    z -= s[ps.row_j]
    cell, K = whole_cell(ps), stats.K
    pos = np.bincount(cell, weights=stable_sigmoid(z), minlength=K * K)
    np.negative(z, out=z)
    neg = np.bincount(cell, weights=stable_sigmoid(z), minlength=K * K)
    cell_sums = np.stack((neg.reshape(K, K).T, pos.reshape(K, K)), axis=-1)
    # The chunked cell sums are under test; the algebra after them is shared.
    return constraint_bias(kind, stats, cell_sums, 2 * len(ps))[0]


def bits(x):
    """The float64 bit patterns of x, for exact comparison."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.uint64)


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(bits(actual), bits(expected))


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(data, "PAIR_CHUNK", CHUNK)


# Pair counts: several chunks with a ragged tail, exactly one chunk, less
# than one chunk.
SIZES = {"ragged": 5 * CHUNK + 3, "one-chunk": CHUNK, "below-one-chunk": CHUNK - 2}


def pair_sets(rng, K):
    """A random pair set spanning many chunks, and a subset of each of SIZES."""
    ps = make_pairs(random_dataset(rng, n_queries=6, items_per_query=9, d=3, K=K))
    assert len(ps) > max(SIZES.values()) and len(ps) % CHUNK
    subsets = {name: pair_subset(ps, np.sort(rng.permutation(len(ps))[:n]))
               for name, n in SIZES.items()}
    return ps, subsets


@pytest.mark.parametrize("K", [2, 3, 8])
def test_make_pairs_matches_whole_form(rng, K):
    ds = random_dataset(rng, n_queries=7, items_per_query=11, d=2, K=K)
    ps = make_pairs(ds)
    row_i, row_j = whole_make_pairs(ds)
    assert ps.row_i.dtype == ps.row_j.dtype == np.int32
    assert ps.row_i.tobytes() == row_i.tobytes() and ps.row_j.tobytes() == row_j.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12), min_size=1, max_size=6))
def test_make_pairs_matches_whole_form_on_random_queries(labels):
    # Queries with one label only, or one item, hold no pairs.
    queries = [(f"q{n}", lab, [0] * len(lab), [[0.0]] * len(lab)) for n, lab in enumerate(labels)]
    ds = build_dataset(queries, d=1, K=1)
    ps = make_pairs(ds)
    row_i, row_j = whole_make_pairs(ds)
    assert ps.row_i.tobytes() == row_i.tobytes() and ps.row_j.tobytes() == row_j.tobytes()


@pytest.mark.parametrize("labels", [[2, 0, 1], [1, 0, -1], [0, 0, 3]])
def test_make_pairs_rejects_labels_outside_0_1(labels):
    # Pairs are counted from label sums, so such a dataset, built in code
    # without validate_dataset, must not get a silently wrong pair set.
    ds = Dataset(["q"], np.array([0, 3]), np.zeros((3, 1)), np.array(labels), np.zeros(3, int), 1)
    with pytest.raises(ValidationError, match=r"label in \{0, 1\}"):
        make_pairs(ds)


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("K", [2, 3, 8])
def test_cells_and_counts_match_whole_form(rng, K):
    ps, subsets = pair_sets(rng, K)
    for sub in [ps, *subsets.values()]:
        assert sub.arrays.dtype == np.uint8
        assert sub.arrays.tobytes() == whole_cell(sub).tobytes()
        np.testing.assert_array_equal(sub.cell_counts, whole_cell_counts(sub))
        assert sub.cell_counts.dtype == np.int64


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("K", [2, 3, 8])
def test_group_stats_bit_identical(rng, K):
    ps, subsets = pair_sets(rng, K)
    for sub in [ps, *subsets.values()]:
        stats = compute_group_stats(sub)
        for actual, expected in zip(
            (stats.pair_frac, stats.pos_pair_frac, stats.pos_frac), whole_group_stats(sub)
        ):
            assert_same_bits(actual, expected)


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_pair_weights_bit_identical(rng, kind, K):
    ps, subsets = pair_sets(rng, K)
    coeffs = Coefficients(rng.normal(scale=0.5, size=(K, K)), kind)
    for weight_form in ("general", "indicator"):
        for sub in [ps, *subsets.values()]:
            assert_same_bits(
                pair_weights(coeffs, sub, weight_form),
                whole_pair_weights(coeffs, compute_group_stats(sub), sub, weight_form),
            )


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("K", [2, 3, 8])
@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_expected_bias_bit_identical(rng, kind, K):
    ps, subsets = pair_sets(rng, K)
    model = LinearRankingModel(rng.normal(scale=2.0, size=ps.source.d))
    for sub in [ps, *subsets.values()]:
        stats = compute_group_stats(sub)
        delta = expected_bias(score_matrix(model, sub.source.features), sub, kind)
        assert_same_bits(delta.values, whole_expected_bias(model, sub, stats, kind))


@pytest.mark.usefixtures("small_chunks")
def test_empty_pair_set(rng):
    ps, _ = pair_sets(rng, 3)
    empty = pair_subset(ps, np.zeros(0, dtype=np.intp))
    assert empty.arrays.size == 0 and empty.arrays.dtype == np.uint8
    np.testing.assert_array_equal(empty.cell_counts, np.zeros((3, 3), dtype=np.int64))
    # An empty pair set has no statistics, so it can be neither weighed nor measured.
    coeffs = Coefficients(rng.normal(size=(3, 3)), ConstraintKind.PAIR_STATISTICAL)
    with pytest.raises(ValidationError, match="empty pair set"):
        compute_group_stats(empty)
    with pytest.raises(ValidationError, match="empty pair set"):
        pair_weights(coeffs, empty)
    with pytest.raises(ValidationError, match="empty pair set"):
        expected_bias(np.ones(ps.source.n_items), empty, ConstraintKind.PAIR_STATISTICAL)
    no_pairs = build_dataset([("q", [1, 1], [0, 1], [[0.0]] * 2)], d=1, K=2)
    assert len(make_pairs(no_pairs)) == 0


# A pass's temporaries are bounded by chunks, not pairs: 2 MiB, 64 bytes
# a pair of one PAIR_CHUNK.
CHUNK_BOUND = 64 * data.PAIR_CHUNK


def traced_peak(fn):
    """fn's result and the peak bytes it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """At 600×60 (about 475k pairs) the whole-array forms peaked at 8 to
    32 bytes a pair, 4 to 15 MB; the chunked passes stay within one bound."""

    @pytest.fixture(scope="class")
    def pairs(self):
        ds, _ = generate_synthetic(600, 60, d=5, K=2, bias_strength=1.0, seed=11)
        ps, peak = traced_peak(lambda: make_pairs(ds))
        assert len(ps) >= 200_000
        ps.arrays
        return ps, peak

    def test_make_pairs_peaks_at_its_output(self, pairs):
        ps, peak = pairs
        assert peak <= ps.row_i.nbytes + ps.row_j.nbytes + 2**20

    def test_group_stats_peak_is_bounded(self, pairs):
        ps, _ = pairs
        vars(ps).pop("cell_counts", None)  # measure the counting pass, not the cached counts
        _, peak = traced_peak(lambda: compute_group_stats(ps))
        assert peak < CHUNK_BOUND

    def test_pair_weights_peak_beyond_output_is_bounded(self, pairs):
        ps, _ = pairs
        coeffs = Coefficients(np.array([[0.0, 0.4], [-0.3, 0.0]]), ConstraintKind.PAIR_INTER_GROUP)
        weights, peak = traced_peak(lambda: pair_weights(coeffs, ps))
        assert peak - weights.nbytes < CHUNK_BOUND

    def test_expected_bias_peak_is_bounded(self, pairs):
        ps, _ = pairs
        model = LinearRankingModel(np.linspace(-1.0, 1.0, ps.source.d))
        scores = score_matrix(model, ps.source.features)
        _, peak = traced_peak(
            lambda: expected_bias(scores, ps, ConstraintKind.PAIR_INTER_GROUP)
        )
        assert peak < CHUNK_BOUND

    @pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
    def test_group_pair_state_is_bounded_at_k64(self, kind):
        # Measuring and reweighing hold per-group-pair state, 2K² cells, not
        # a (K, K, 2K²) constraint table: at K=64 on 40×60 items the tables
        # peaked at 506 MiB, and the closed forms at 0.9 MiB.  The bound is
        # the chunk bound plus 512 bytes a group pair, 4 MiB.
        K = 64
        ds, _ = generate_synthetic(40, 60, d=5, K=K, bias_strength=1.0, seed=0)
        ps = make_pairs(ds)
        ps.arrays
        scores = score_matrix(LinearRankingModel(np.linspace(-1.0, 1.0, ds.d)), ds.features)
        coeffs = Coefficients(np.full((K, K), 0.01), kind)

        def measure_and_weigh():
            expected_bias(scores, ps, kind)
            return pair_weights(coeffs, ps)

        _, peak = traced_peak(measure_and_weigh)
        assert peak < CHUNK_BOUND + 512 * K * K

    def test_history_holds_each_iteration_once(self):
        # Each outer iteration keeps its violation and coefficients, 16 bytes
        # a group pair, and its violation's mask, 1 more, while the loop runs.
        # Copying the two into each history record while the loop's own list
        # was alive made that about 29 bytes a group pair at K=256.  The
        # growth is read between T=3 and T=10; eta_lambda is small enough
        # that no weight underflows.  The bound sits between the two, 22 bytes.
        K = 256
        train, _ = generate_synthetic(40, 60, d=5, K=K, bias_strength=1.0, seed=0)
        eval_set, _ = generate_synthetic(40, 60, d=5, K=K, bias_strength=1.0, seed=1)

        def peak(T):
            cfg = FairTrainConfig(eta_lambda=1e-4, T=T, inner=TrainConfig(epochs=1))
            return traced_peak(
                lambda: fair_train(train, eval_set, ConstraintKind.PAIR_STATISTICAL, cfg)
            )[1]

        per_iteration = (peak(10) - peak(3)) / 7
        assert per_iteration < 22 * K * K
