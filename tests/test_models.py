"""Tests for the flat-parameter models: forward, gradients, SGD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import models
from fedpriv.models import ModelSpec
from oracles import finite_difference_grad, max_rel_error, sequential_sgd_clients

LOGISTIC = ModelSpec(input_dim=5, hidden_dim=0, num_classes=3)
MLP = ModelSpec(input_dim=5, hidden_dim=6, num_classes=3)


def test_param_count_layout():
    assert LOGISTIC.param_count == 3 * 6
    assert MLP.param_count == 6 * 6 + 3 * 7
    # output layer sits at the tail of the flat vector
    params = np.arange(MLP.param_count, dtype=np.float64)
    w1, b1, w2, b2 = models.unpack(MLP, params)
    assert b2[-1] == params[-1]
    assert w1[0, 0] == params[0]


def test_zero_params_uniform_softmax():
    pred = models.forward(LOGISTIC, np.zeros(LOGISTIC.param_count), np.ones(5))
    assert np.allclose(pred.probs, 1.0 / 3.0)


def test_equal_logits_give_half():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
    pred = models.forward(spec, np.zeros(spec.param_count), np.array([3.0, -1.0]))
    assert np.allclose(pred.probs, [0.5, 0.5])


def test_forward_matches_straight_line_reimplementation():
    # independent oracle: pure-python forward pass, no shared code
    rng = np.random.default_rng(123)
    params = models.init_params(MLP, rng)
    x = rng.normal(size=5)
    w1, b1, w2, b2 = models.unpack(MLP, params)
    hid = [max(0.0, sum(w1[j, i] * x[i] for i in range(5)) + b1[j]) for j in range(6)]
    logits = [sum(w2[c, j] * hid[j] for j in range(6)) + b2[c] for c in range(3)]
    mx = max(logits)
    exps = [math.exp(z - mx) for z in logits]
    expected = [e / sum(exps) for e in exps]
    pred = models.forward(MLP, params, x)
    assert np.max(np.abs(pred.probs - np.asarray(expected))) <= 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        models.forward(LOGISTIC, np.zeros(LOGISTIC.param_count), np.ones(4))
    with pytest.raises(ValueError):
        models.unpack(LOGISTIC, np.zeros(LOGISTIC.param_count + 1))


def test_zero_params_loss_is_log_n():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    loss, _ = models.loss_and_grad(LOGISTIC, np.zeros(LOGISTIC.param_count), x, [0, 1, 2, 0])
    assert loss == pytest.approx(math.log(3), abs=1e-12)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    params = models.init_params(spec, rng)
    x = rng.normal(size=(5, 5))
    y = rng.integers(0, 3, size=5)
    _, grad = models.loss_and_grad(spec, params, x, y)
    fd = finite_difference_grad(lambda p: models.loss_and_grad(spec, p, x, y)[0], params)
    assert max_rel_error(grad, fd) <= 1e-4


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_gradient_property_20_seeded_instances(spec):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = models.init_params(spec, rng)
        x = rng.normal(size=(3, 5))
        y = rng.integers(0, 3, size=3)
        _, grad = models.loss_and_grad(spec, params, x, y)
        fd = finite_difference_grad(lambda p: models.loss_and_grad(spec, p, x, y)[0], params)
        assert max_rel_error(grad, fd) <= 1e-4


def test_perfectly_predicted_sample_has_zero_loss_and_grad():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=3)
    params = np.zeros(spec.param_count)
    params[0] = 10.0  # weight of class 0 on feature 0
    x = np.array([10.0, 0.0])
    loss, grad = models.loss_and_grad(spec, params, x[None, :], [0])
    assert loss <= 1e-12
    assert np.linalg.norm(grad) <= 1e-12


def test_per_sample_grad_matches_batch_of_one():
    rng = np.random.default_rng(3)
    params = models.init_params(MLP, rng)
    x = rng.normal(size=5)
    g1 = models.per_sample_grad(MLP, params, x, 2)
    _, g2 = models.loss_and_grad(MLP, params, x[None, :], [2])
    assert np.array_equal(g1, g2)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        models.loss_and_grad(LOGISTIC, np.zeros(LOGISTIC.param_count), np.empty((0, 5)), [])


def test_softmax_sums_to_one_property():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = models.init_params(MLP, rng) * rng.uniform(1, 50)
        probs = models.predict_proba(MLP, params, rng.normal(size=(4, 5)))
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def test_sgd_zero_lr_is_identity():
    rng = np.random.default_rng(5)
    params = models.init_params(LOGISTIC, rng)
    x, y = rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)
    out = models.sgd_epochs(LOGISTIC, params, x, y, 0.0, 3, 4, np.random.default_rng(1))
    assert np.array_equal(out, params)


def test_sgd_single_full_batch_step():
    rng = np.random.default_rng(6)
    params = models.init_params(LOGISTIC, rng)
    x, y = rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)
    _, grad = models.loss_and_grad(LOGISTIC, params, x, y)
    out = models.sgd_epochs(LOGISTIC, params, x, y, 0.5, 1, 8, np.random.default_rng(2))
    assert np.allclose(out, params - 0.5 * grad, atol=1e-12)


def test_sgd_improves_separable_problem():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(20, 5)) + np.array([4, 0, 0, 0, 0])
    x1 = rng.normal(size=(20, 5)) - np.array([4, 0, 0, 0, 0])
    x = np.vstack([x0, x1])
    y = np.array([0] * 20 + [1] * 20)
    spec = ModelSpec(input_dim=5, hidden_dim=0, num_classes=2)
    params = models.init_params(spec, rng)
    before, _ = models.loss_and_grad(spec, params, x, y)
    out = models.sgd_epochs(spec, params, x, y, 0.1, 50, 8, np.random.default_rng(3))
    after, _ = models.loss_and_grad(spec, out, x, y)
    assert after < before


def test_sgd_deterministic_given_stream():
    rng = np.random.default_rng(9)
    params = models.init_params(MLP, rng)
    x, y = rng.normal(size=(16, 5)), rng.integers(0, 3, size=16)
    a = models.sgd_epochs(MLP, params, x, y, 0.2, 2, 4, np.random.default_rng(77))
    b = models.sgd_epochs(MLP, params, x, y, 0.2, 2, 4, np.random.default_rng(77))
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    batch_size=st.integers(1, 16),
    epochs=st.integers(1, 3),
    hidden=st.sampled_from([0, 7]),
    seed=st.integers(0, 2**16),
)
def test_lockstep_sgd_is_bit_identical_to_sequential_oracle(
    sizes, batch_size, epochs, hidden, seed
):
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(seed)
    params = models.init_params(spec, rng)
    xs = [2.0 * rng.normal(size=(n, 4)) for n in sizes]
    ys = [rng.integers(0, 3, size=n) for n in sizes]

    def streams():
        return [np.random.default_rng([seed, k]) for k in range(len(sizes))]

    args = (spec, params, xs, ys, 0.3, epochs, batch_size)
    got = models.sgd_clients(*args, streams())
    assert got.shape == (len(sizes), spec.param_count)
    assert np.array_equal(got, sequential_sgd_clients(*args, streams()))


def test_lockstep_sgd_names_the_diverging_clients():
    rng = np.random.default_rng(10)
    params = models.init_params(MLP, rng)
    xs = [rng.normal(size=(n, 5)) for n in (9, 12, 5, 12)]
    ys = [rng.integers(0, 3, size=len(x)) for x in xs]
    xs[1] = xs[1] * 1e300
    xs[3] = xs[3] * 1e300
    rngs = [np.random.default_rng(k) for k in range(4)]
    with pytest.raises(models.NonFiniteLoss, match=r"client\(s\) \[1, 3\]") as err:
        models.sgd_clients(MLP, params, xs, ys, 0.1, 1, 4, rngs)
    assert err.value.clients == [1, 3]


def test_lockstep_sgd_needs_a_generator_per_client():
    rng = np.random.default_rng(11)
    params = models.init_params(LOGISTIC, rng)
    x, y = rng.normal(size=(6, 5)), rng.integers(0, 3, size=6)
    shared = np.random.default_rng(0)
    with pytest.raises(ValueError, match="own generator"):
        models.sgd_clients(LOGISTIC, params, [x, x], [y, y], 0.1, 1, 4, [shared, shared])
