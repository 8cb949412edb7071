"""Closed-form gradient cosines against explicit per-sample gradients, and
the row-blocked projection against the one-shot one."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpriv import attacks as atk
from fedpriv import models
from fedpriv.models import ModelSpec
from oracles import one_shot_grad_cosines

TOL = 1e-12


def _reference_cosines(spec, params, x, y, directions):
    """Cosines from the explicit (n, P) gradient matrix; zero norm gives 0."""
    grads = atk._grad_matrix(spec, params, x, y)
    out = np.zeros((len(directions), len(y)))
    for j, v in enumerate(directions):
        norms = np.linalg.norm(grads, axis=1) * np.linalg.norm(v)
        ok = norms > 0
        out[j, ok] = (grads @ v)[ok] / norms[ok]
    return out


def _max_gap(spec, params, x, y, directions):
    got = atk._grad_cosines(spec, params, x, y, directions)
    assert got.shape == (len(directions), len(y))
    return float(np.abs(got - _reference_cosines(spec, params, x, y, directions)).max())


def _problem(spec, n, m, seed):
    rng = np.random.default_rng(seed)
    params = models.init_params(spec, rng)
    x = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, n)
    directions = rng.normal(size=(m, spec.param_count))
    return params, x, y, directions


def test_logreg_several_directions_and_a_zero_direction():
    spec = ModelSpec(input_dim=6, hidden_dim=0, num_classes=4)
    params, x, y, directions = _problem(spec, n=25, m=5, seed=0)
    directions[2] = 0.0
    assert _max_gap(spec, params, x, y, directions) <= TOL
    assert np.all(atk._grad_cosines(spec, params, x, y, directions)[2] == 0.0)


def test_mlp_several_directions_and_a_zero_direction():
    spec = ModelSpec(input_dim=5, hidden_dim=12, num_classes=3)
    params, x, y, directions = _problem(spec, n=30, m=6, seed=1)
    directions[0] = 0.0
    assert _max_gap(spec, params, x, y, directions) <= TOL
    assert np.all(atk._grad_cosines(spec, params, x, y, directions)[0] == 0.0)


def test_single_direction_vector_gives_one_row():
    spec = ModelSpec(input_dim=5, hidden_dim=12, num_classes=3)
    params, x, y, directions = _problem(spec, n=8, m=1, seed=2)
    got = atk._grad_cosines(spec, params, x, y, directions[0])
    assert got.shape == (1, 8)
    assert np.abs(got - _reference_cosines(spec, params, x, y, directions)).max() <= TOL


def test_mlp_dead_relu_sample_and_zero_gradient_sample():
    spec = ModelSpec(input_dim=4, hidden_dim=8, num_classes=3)
    params, x, y, directions = _problem(spec, n=12, m=4, seed=3)
    w1, b1, _, _ = models.unpack(spec, params)
    # sample 0 switches every hidden unit off; the others stay generic
    x[0] = 0.0
    b1[:] = -np.abs(b1) - 0.1
    pre = x @ w1.T + b1
    assert np.all(pre[0] <= 0) and np.any(pre[1:] > 0)
    assert _max_gap(spec, params, x, y, directions) <= TOL

    # all units dead and a saturated softmax on the true class: zero gradient
    dead = params.copy()
    _, dead_b1, _, dead_b2 = models.unpack(spec, dead)
    dead_b1[:] = -1e3
    dead_b2[:] = [800.0, 0.0, 0.0]
    y_sat = np.array([0, 1, 0, 2])
    assert not np.any(atk._grad_matrix(spec, dead, x[:4], y_sat)[[0, 2]])
    got = atk._grad_cosines(spec, dead, x[:4], y_sat, directions)
    assert np.all(got[:, [0, 2]] == 0.0)
    assert _max_gap(spec, dead, x[:4], y_sat, directions) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 6),
    h=st.integers(0, 7),
    c=st.integers(2, 5),
    n=st.integers(1, 9),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_matches_explicit_gradients(d, h, c, n, m, seed):
    spec = ModelSpec(input_dim=d, hidden_dim=h, num_classes=c)
    params, x, y, directions = _problem(spec, n, m, seed)
    assert _max_gap(spec, params, x, y, directions) <= TOL


def test_one_call_holds_one_projection_at_the_benchmark_out_shape():
    """scale_k40's OUT shape: 550 query samples, 39 directions, 64 hidden units."""
    n, m = 550, 39
    spec = ModelSpec(input_dim=12, hidden_dim=64, num_classes=10)
    params, x, y, directions = _problem(spec, n, m, seed=6)
    projection = n * m * spec.hidden_dim * 8
    tracemalloc.start()
    try:
        atk._grad_cosines(spec, params, x, y, directions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * projection, peak / projection


# --- row blocks: the bits of one-shot projections, a bounded working set -----


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n, m, h", [(550, 39, 64), (1850, 99, 128)])
def test_blocked_cosines_keep_the_bits_of_one_shot_projections(n, m, h):
    """scale_k40's OUT shape, and one with more samples, directions and units."""
    spec = ModelSpec(input_dim=12, hidden_dim=h, num_classes=10)
    params, x, y, directions = _problem(spec, n, m, seed=7)
    assert len(atk._cosine_blocks(n, m, [h, 10])) > 1
    got = atk._grad_cosines(spec, params, x, y, directions)
    assert np.array_equal(_bits(got), _bits(one_shot_grad_cosines(spec, params, x, y, directions)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 700),
    m=st.integers(1, 50),
    h=st.sampled_from([0, 8, 64]),
    d=st.sampled_from([5, 12, 40]),
    c=st.sampled_from([2, 10]),
    block_rows=st.integers(1, 240),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, m=3, h=8, d=12, c=10, block_rows=1, seed=0)  # fewer rows than a block
@example(n=24, m=50, h=64, d=12, c=10, block_rows=12, seed=1)  # two full blocks
@example(n=700, m=50, h=64, d=40, c=10, block_rows=1, seed=2)  # many blocks, a short last one
@example(n=25, m=50, h=64, d=12, c=10, block_rows=1, seed=3)  # a one-row last block
@example(n=130, m=1, h=0, d=40, c=10, block_rows=1, seed=4)  # blocks above the small kernel
def test_any_block_budget_keeps_the_bits_of_one_shot_projections(
    n, m, h, d, c, block_rows, seed
):
    spec = ModelSpec(input_dim=d, hidden_dim=h, num_classes=c)
    params, x, y, directions = _problem(spec, n, m, seed)
    units = [h, c] if h else [c]
    with mock.patch.object(atk, "COSINE_BLOCK_BYTES", block_rows * 8 * m * max(units)):
        bounds = atk._cosine_blocks(n, m, units)
        got = atk._grad_cosines(spec, params, x, y, directions)
    starts = [s for s, _ in bounds]
    assert all(s % 12 == 0 for s in starts)
    assert starts[0] == 0 and [e for _, e in bounds] == starts[1:] + [n]
    assert np.array_equal(_bits(got), _bits(one_shot_grad_cosines(spec, params, x, y, directions)))


def test_one_call_at_a_large_shape_stays_within_20_mb():
    """The one-shot projection at this shape peaks at 200.9 MB."""
    spec = ModelSpec(input_dim=12, hidden_dim=128, num_classes=10)
    params, x, y, directions = _problem(spec, n=1850, m=99, seed=8)
    tracemalloc.start()
    try:
        atk._grad_cosines(spec, params, x, y, directions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


@pytest.mark.parametrize("row_bytes", [8, 8 * 39 * 64, atk.COSINE_BLOCK_BYTES, 10**9])
@pytest.mark.parametrize("least", [1, 2, 13, 100])
def test_block_rows_are_whole_multiples_of_12(row_bytes, least):
    rows = atk._cosine_block_rows(row_bytes, least)
    assert rows % 12 == 0 and rows >= max(12, least)
    if row_bytes * rows > atk.COSINE_BLOCK_BYTES:  # only the floors may exceed the budget
        assert rows == max(12, -(-least // 12) * 12)


def test_a_short_last_block_joins_the_one_before():
    """One row left over would run as a vector product, which numpy computes
    another way; the last block takes it instead."""
    with mock.patch.object(atk, "COSINE_BLOCK_BYTES", 1):
        assert atk._cosine_blocks(25, 50, [64, 10]) == [(0, 12), (12, 25)]
        assert atk._cosine_blocks(12, 50, [64, 10]) == [(0, 12)]
        assert atk._cosine_blocks(0, 50, [64, 10]) == [(0, 0)]
