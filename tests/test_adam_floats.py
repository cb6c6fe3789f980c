"""Differential test: training.adam_update, which steps on Python floats,
against the numpy form it replaced.

``numpy_adam_update`` is that form verbatim: 14 ufunc calls on the whole
vectors, stepping an array state (adam_oracle.ArrayAdamState) into a new
one.  The float form steps its own state, lists of Python floats, in place;
it must give the same bits for m, v and the parameters wherever the numpy
form gives a number, and a NaN (of any payload) wherever it gives a NaN.
The oracle runs with every floating point warning silenced; the float
form runs under the suite's warnings-as-errors and must neither warn nor
raise, also where a hand-built state has a negative second moment, whose
root math.sqrt alone would refuse.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adam_oracle import ArrayAdamState, both_states
from fairpair.errors import ValidationError
from fairpair.training import AdamState, TrainConfig, adam_update

DIMS = [1, 5, 6, 20, 136]
CONFIGS = [
    TrainConfig(),
    TrainConfig(learning_rate=0.03, beta1=0.8, beta2=0.99, eps_adam=1e-7),
    TrainConfig(beta1=0.0),
    TrainConfig(beta2=0.0),
    TrainConfig(learning_rate=5.0, beta1=0.0, beta2=0.0, eps_adam=1e-300),
]
TINY = 5e-324  # the smallest subnormal
FINITE_EDGES = [0.0, -0.0, TINY, -TINY, 1e-310, -2.2e-308, 1e-300, -1e-300, 1e300, -1e300]
NONFINITE = [math.inf, -math.inf, math.nan, -math.nan]


def numpy_adam_update(state, params, grad, cfg):
    """The numpy adam_update body, as it was before the float form."""
    t = state.t + 1
    m = cfg.beta1 * state.m
    m += (1.0 - cfg.beta1) * grad
    v = (1.0 - cfg.beta2) * grad
    v *= grad
    v += cfg.beta2 * state.v
    step = m / (1.0 - cfg.beta1**t)
    step *= cfg.learning_rate
    denom = v / (1.0 - cfg.beta2**t)
    np.sqrt(denom, out=denom)
    denom += cfg.eps_adam
    step /= denom
    return ArrayAdamState(m, v, t), params - step


def oracle_step(state, params, grad, cfg):
    with np.errstate(all="ignore"):
        return numpy_adam_update(state, params, grad, cfg)


def assert_same(actual, expected):
    """Bit-equal where expected is a number, NaN where it is NaN."""
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def assert_same_step(state, old_state, params, grad, cfg):
    """One step of both forms from equal states: the float form steps ``state``
    in place and the oracle steps ``old_state`` into a new one.  Returns the
    oracle's new state and the float form's parameters."""
    returned, new_params = adam_update(state, params, grad, cfg)
    old_state, old_params = oracle_step(old_state, params, grad, cfg)
    assert returned is state
    assert type(state.t) is int and state.t == old_state.t
    assert type(state.m) is type(state.v) is list
    assert all(type(x) is float for x in state.m + state.v)
    assert_same(np.array(state.m), old_state.m)
    assert_same(np.array(state.v), old_state.v)
    assert_same(new_params, old_params)
    return old_state, new_params


def gradient(rng, d, specials, rate):
    """Normal draws of a random decade in [1e-12, 1e6), each entry replaced
    by one of ``specials`` with probability ``rate``."""
    grad = 10.0 ** rng.integers(-12, 6) * rng.normal(size=d)
    hit = rng.random(d) < rate
    grad[hit] = rng.choice(specials, size=hit.sum())
    return grad


def run(rng, d, cfg, specials, rate, steps=200):
    # One float state runs the whole way, as in a training.
    state, old_state, params = AdamState.zeros(d), ArrayAdamState.zeros(d), rng.normal(size=d)
    for _ in range(steps):
        grad = gradient(rng, d, specials, rate)
        old_state, params = assert_same_step(state, old_state, params, grad, cfg)
    return state, params


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
@pytest.mark.parametrize("d", DIMS)
def test_finite_runs_bit_equal(d, cfg):
    # Signed zeros, subnormals and 1e±300 gradients: g*g underflows to 0
    # or overflows to inf (and b2*v to NaN once v is inf at beta2=0).
    rng = np.random.default_rng(d)
    state, _ = run(rng, d, cfg, FINITE_EDGES, rate=0.2)
    assert state.t == 200


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
@pytest.mark.parametrize("d", DIMS)
def test_runs_with_nonfinite_gradients_agree(d, cfg):
    # ±inf and NaN gradients make coordinates NaN, which stay NaN on both
    # sides; the rate keeps most coordinates finite for most steps.
    rng = np.random.default_rng(100 + d)
    run(rng, d, cfg, FINITE_EDGES + NONFINITE, rate=0.003)


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
def test_every_special_gradient_from_every_state(cfg):
    # Each special gradient value against moments that are zero, normal,
    # huge, negative, infinite or NaN, at the first and a late step.
    specials = np.array(FINITE_EDGES + NONFINITE + [1.0, -3.5])
    moments = np.array([0.0, -0.0, 0.25, 1e300, -1e300, math.inf, -math.inf, math.nan])
    g, mm, vv = np.meshgrid(specials, moments, np.abs(moments), indexing="ij")
    grad, m, v = g.ravel(), mm.ravel(), vv.ravel()
    params = np.resize([0.5, -2.0, 0.0, 1e300, math.inf, math.nan], grad.size)
    for t in (0, 7, 10**6):
        assert_same_step(*both_states(m, v, t), params, grad, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
def test_negative_second_moment_gives_nan(cfg):
    # A hand-built v < 0: the numpy root is NaN (with a warning, silenced
    # in the oracle); the float form gives NaN without a warning or a raise.
    v = np.array([-1.0, -TINY, -0.0, -math.inf, 4.0])
    m = np.full(5, 0.5)
    _, params = assert_same_step(*both_states(m, v, 3), np.ones(5), np.zeros(5), cfg)
    # Bit-equal finite entries; the first and fourth root are NaN whenever
    # b2 > 0 keeps the negative moment.
    if cfg.beta2 > 0:
        assert np.isnan(params[[0, 3]]).all()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(0, 12),
    t=st.integers(0, 10**4),
    cfg=st.sampled_from(CONFIGS),
)
def test_any_floats_agree(data, d, t, cfg):
    floats = hnp.arrays(np.float64, d, elements=st.floats(allow_subnormal=True, width=64))
    m, v, params, grad = (data.draw(floats) for _ in range(4))
    assert_same_step(*both_states(m, v, t), params, grad, cfg)


def test_outputs_are_fresh_arrays(rng):
    # The state is stepped in place, so its lists are the ones passed in; the
    # parameters come back in a new array that shares no memory with an
    # input (test_inner_loop.py checks that params and grad are untouched).
    state = AdamState(rng.normal(size=4).tolist(), rng.uniform(size=4).tolist(), 2)
    m, v = state.m, state.v
    params, grad = rng.normal(size=4), rng.normal(size=4)
    new_state, new_params = adam_update(state, params, grad, TrainConfig())
    assert new_state is state and state.m is m and state.v is v and state.t == 3
    assert type(new_params) is np.ndarray and new_params.dtype == np.float64
    assert new_params.flags.owndata and new_params.flags.writeable
    assert not any(np.shares_memory(new_params, a) for a in (params, grad))


def test_empty_parameters():
    state, params = adam_update(AdamState.zeros(0), np.zeros(0), np.zeros(0), TrainConfig())
    assert state.t == 1 and state.m == state.v == []
    assert params.shape == (0,) and params.dtype == np.float64


@pytest.mark.parametrize(
    "state,params,match",
    [
        (AdamState.zeros(4), np.zeros((2, 2)), "2-d parameters"),
        (AdamState.zeros(1), np.zeros(()), "0-d parameters"),
        (AdamState([0.0, 0.0], [0.0, 0.0], -1), np.zeros(2), "negative step count -1"),
        (AdamState.zeros(2), np.zeros(3), "mismatched shapes"),
        (AdamState([0.0] * 3, [0.0] * 2), np.zeros(3), "mismatched shapes"),
    ],
)
def test_rejected_states(state, params, match):
    # A rejected step leaves the state as it was.
    m, v, t = list(state.m), list(state.v), state.t
    with pytest.raises(ValidationError, match=match):
        adam_update(state, params, np.zeros(params.shape), TrainConfig())
    assert (state.m, state.v, state.t) == (m, v, t)
