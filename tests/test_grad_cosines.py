"""Closed-form gradient cosines against explicit per-sample gradients."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import attacks as atk
from fedpriv import models
from fedpriv.models import ModelSpec

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
