"""Tests for the flat-parameter models: forward, gradients, SGD."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpriv import models
from fedpriv.compensation import cr_term
from fedpriv.models import ModelSpec
from oracles import (
    finite_difference_grad,
    loop_lockstep_layout,
    max_rel_error,
    permutation_epoch_order,
    reference_log_softmax,
    reference_softmax,
    sequential_sgd_clients,
)

LOGISTIC = ModelSpec(input_dim=5, hidden_dim=0, num_classes=3)
MLP = ModelSpec(input_dim=5, hidden_dim=6, num_classes=3)

# The client sizes of the dirichlet_logreg benchmark workload at seed 0.
DIRICHLET_SIZES = [
    302, 265, 248, 189, 189, 185, 180, 176, 175, 160,
    160, 157, 154, 137, 126, 119, 105, 99, 56, 49,
]


class Drawn:
    """Stands in for hypothesis's `st.data()` in an `@example`: every draw
    returns the same given value."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


def test_param_count_layout():
    assert LOGISTIC.param_count == 3 * 6
    assert MLP.param_count == 6 * 6 + 3 * 7
    # output layer sits at the tail of the flat vector
    params = np.arange(MLP.param_count, dtype=np.float64)
    w1, b1, w2, b2 = models.unpack(MLP, params)
    assert b2[-1] == params[-1]
    assert w1[0, 0] == params[0]


def test_zero_params_uniform_softmax():
    probs = models.predict_proba(LOGISTIC, np.zeros(LOGISTIC.param_count), np.ones((1, 5)))
    assert np.allclose(probs, 1.0 / 3.0)


def test_equal_logits_give_half():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
    probs = models.predict_proba(spec, np.zeros(spec.param_count), np.array([[3.0, -1.0]]))
    assert np.allclose(probs, [[0.5, 0.5]])


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
    probs = models.predict_proba(MLP, params, x[None, :])[0]
    assert np.max(np.abs(probs - np.asarray(expected))) <= 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        models.predict_proba(LOGISTIC, np.zeros(LOGISTIC.param_count), np.ones((1, 4)))
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


# Signed zeros, ones, infinities, subnormals, huge values and a NaN: the
# values where a max's tie or a subtraction's rounding could show.
EDGE_LOGITS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
EDGE_ROWS = [[0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [np.inf, np.inf, 0.0], [np.nan, -np.inf, 1.0]]
CROSSOVER = models.CLASS_MAJOR_ROWS

# Leading shapes on both sides of the row-by-row/class-major crossover, as
# 2-D and as 3-D stacks, and class counts in every branch of the class-major
# sum: under 8, 8-15, 16-128 and above 128.
LEADING_SHAPES = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(CROSSOVER - 2, CROSSOVER + 40)),
    st.tuples(st.integers(1, 4), st.integers(1, 12)),
    st.tuples(st.integers(2, 4), st.integers(CROSSOVER // 2 - 2, CROSSOVER // 2 + 20)),
)
CLASS_COUNTS = st.one_of(
    st.integers(2, 7), st.integers(8, 15), st.integers(16, 128), st.integers(129, 300)
)


@st.composite
def _edge_logits(draw, values):
    """Logits of a drawn shape, each entry one of `values` with a drawn
    probability and a normal draw times 10 otherwise."""
    shape = (*draw(LEADING_SHAPES), draw(CLASS_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = 10.0 * rng.normal(size=shape)
    edge = rng.random(shape) < draw(st.sampled_from([0.05, 0.3, 1.0]))
    logits[edge] = rng.choice(values, size=int(edge.sum()))
    return logits


@settings(max_examples=300, deadline=None)
@given(logits=_edge_logits(EDGE_LOGITS))
@example(logits=np.asarray(EDGE_ROWS))
@example(logits=np.asarray(EDGE_ROWS * (CROSSOVER // 4 + 1)))
@example(logits=np.asarray(EDGE_ROWS * (CROSSOVER // 8 + 1)).reshape(2, -1, 3))
def test_softmax_and_log_softmax_keep_the_bits_of_the_row_wise_max_formulas(logits):
    with np.errstate(all="ignore"):
        for got, want in (
            (models.log_softmax(logits), reference_log_softmax(logits)),
            (models.softmax(logits), reference_softmax(logits)),
        ):
            assert got.shape == logits.shape
            assert np.array_equal(_bits(got), _bits(want))
        into = logits.copy()
        assert models.log_softmax(into, out=into) is into
        assert np.array_equal(_bits(into), _bits(reference_log_softmax(logits)))


@settings(max_examples=200, deadline=None)
@given(logits=_edge_logits(EDGE_LOGITS + [-np.nan]))
def test_softmax_with_nans_of_both_signs_differs_at_most_in_a_nans_sign(logits):
    # which of two NaNs a max returns depends on its order of comparisons
    with np.errstate(all="ignore"):
        for got, want in (
            (models.log_softmax(logits), reference_log_softmax(logits)),
            (models.softmax(logits), reference_softmax(logits)),
        ):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


@settings(max_examples=200, deadline=None)
@given(logits=_edge_logits(EDGE_LOGITS), seed=st.integers(0, 2**16))
@example(logits=np.asarray(EDGE_ROWS * (CROSSOVER // 4 + 1)), seed=0)
def test_softmax_core_keeps_the_bits_of_the_formulas_at_the_target(logits, seed):
    # a target log-probability of +0.0 is frequent here; its loss is -0.0
    y = np.random.default_rng(seed).integers(0, logits.shape[-1], size=logits.shape[:-1])
    at = (*np.indices(y.shape), y)
    with np.errstate(all="ignore"):
        for kind, want in (
            ("loss", -reference_log_softmax(logits)[at]),
            ("confidence", reference_softmax(logits)[at]),
        ):
            got = models._softmax_core(logits, kind == "loss", y)
            assert got.shape == y.shape
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rows", [3, CROSSOVER], ids=["row_by_row", "class_major"])
def test_a_target_probability_of_one_gives_a_loss_of_minus_zero(rows):
    # p_y is exactly 1, so log p_y is +0.0 and the loss -(log p_y) is -0.0
    logits = np.tile([[3.0, -np.inf, -1e308], [-1e308, 3.0, -np.inf]], (2, rows, 1, 1))
    y = np.tile([0, 1], rows)  # one row of labels for both stacked models
    loss = models._softmax_core(logits.reshape(2, 2 * rows, 3), True, y)
    assert loss.shape == (2, 2 * rows)
    assert np.all(loss == 0.0) and np.all(np.signbit(loss))
    conf = models._softmax_core(logits.reshape(2, 2 * rows, 3), False, y)
    assert np.all(conf == 1.0)


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

    inputs = models.prepare_lockstep(xs, ys, batch_size)
    got = models.sgd_lockstep(spec, params, inputs, 0.3, epochs, streams())
    assert got.shape == (len(sizes), spec.param_count)
    args = (spec, params, xs, ys, 0.3, epochs, batch_size)
    assert np.array_equal(got, sequential_sgd_clients(*args, streams()))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    batch_size=st.integers(1, 16),
    epochs=st.integers(1, 3),
    hidden=st.sampled_from([0, 7]),
    seed=st.integers(0, 2**16),
)
@example(  # the third step holds three plain and three masked groups
    data=Drawn(["none", "none", "none", "mixed", "false", "mixed"]),
    sizes=[40, 38, 36, 39, 37, 35],
    batch_size=16,
    epochs=2,
    hidden=7,
    seed=5,
)
def test_lockstep_sgd_with_mixed_masks_is_bit_identical_to_sequential_oracle(
    data, sizes, batch_size, epochs, hidden, seed
):
    # a None mask trains on cross-entropy alone; an all-False mask still takes
    # the extra-term arithmetic, so a call can mix both paths
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(seed)
    params = models.init_params(spec, rng)
    xs = [2.0 * rng.normal(size=(n, 4)) for n in sizes]
    ys = [rng.integers(0, 3, size=n) for n in sizes]
    kind = st.sampled_from(["none", "false", "mixed"])
    kinds = data.draw(st.lists(kind, min_size=len(sizes), max_size=len(sizes)), label="kinds")
    masks = [
        None if kind == "none" else (rng.random(n) < 0.5) & (kind == "mixed")
        for kind, n in zip(kinds, sizes)
    ]

    def streams():
        return [np.random.default_rng([seed, k]) for k in range(len(sizes))]

    inputs = models.prepare_lockstep(xs, ys, batch_size, masks)
    got = models.sgd_lockstep(spec, params, inputs, 0.3, epochs, streams(), cr_term(0.05))
    assert got.shape == (len(sizes), spec.param_count)
    args = (spec, params, xs, ys, 0.3, epochs, batch_size)
    extra = (masks, cr_term(0.05))
    assert np.array_equal(got, sequential_sgd_clients(*args, streams(), extra))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 1500), min_size=1, max_size=8),
    cr=st.data(),
    seed=st.integers(0, 2**63 - 1),
)
@example(sizes=[1, 2, 3, 17, 64, 250, 999, 1500], cr=Drawn([False] * 8), seed=0)
def test_in_place_epoch_shuffle_equals_one_permutation_per_client(sizes, cr, seed):
    sizes = np.asarray(sizes, dtype=np.int64)
    flags = np.asarray(cr.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))))
    rank, starts, _, _ = models._lockstep_layout(sizes, flags, 32)
    ours = [np.random.default_rng([seed, k]) for k in range(len(sizes))]
    theirs = [np.random.default_rng([seed, k]) for k in range(len(sizes))]
    for _ in range(2):  # the second epoch starts from the states the first left
        got = models._shuffled_rows(rank, starts, sizes, ours)
        assert np.array_equal(got, permutation_epoch_order(rank, starts, sizes, theirs))
        assert got.dtype == np.int64
        for a, b in zip(ours, theirs):
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("lr", [math.nan, -0.1])
def test_lockstep_sgd_rejects_a_nan_or_negative_lr(lr):
    x, y = np.zeros((4, 5)), np.zeros(4, dtype=np.int64)
    params = np.zeros(LOGISTIC.param_count)
    with pytest.raises(ValueError, match="lr must be >= 0"):
        inputs = models.prepare_lockstep([x], [y], 4)
        models.sgd_lockstep(LOGISTIC, params, inputs, lr, 1, [np.random.default_rng(0)])


def test_lockstep_sgd_names_the_diverging_clients():
    rng = np.random.default_rng(10)
    params = models.init_params(MLP, rng)
    xs = [rng.normal(size=(n, 5)) for n in (9, 12, 5, 12)]
    ys = [rng.integers(0, 3, size=len(x)) for x in xs]
    xs[1] = xs[1] * 1e300
    xs[3] = xs[3] * 1e300
    rngs = [np.random.default_rng(k) for k in range(4)]
    with pytest.raises(models.NonFiniteLoss, match=r"client\(s\) \[1, 3\]") as err:
        models.sgd_lockstep(MLP, params, models.prepare_lockstep(xs, ys, 4), 0.1, 1, rngs)
    assert err.value.clients == [1, 3]


def test_lockstep_sgd_names_the_diverging_masked_clients():
    rng = np.random.default_rng(18)
    params = models.init_params(MLP, rng)
    xs = [rng.normal(size=(n, 5)) for n in (9, 12, 5, 12)]
    ys = [rng.integers(0, 3, size=len(x)) for x in xs]
    xs[1] = xs[1] * 1e300
    xs[3] = xs[3] * 1e300
    masks = [rng.random(len(x)) < 0.5 for x in xs]
    masks[3][:] = False  # an all-False mask still takes the masked path
    rngs = [np.random.default_rng(k) for k in range(4)]
    with pytest.raises(models.NonFiniteLoss, match=r"client\(s\) \[1, 3\]") as err:
        inputs = models.prepare_lockstep(xs, ys, 4, masks)
        models.sgd_lockstep(MLP, params, inputs, 0.1, 1, rngs, cr_term(0.05))
    assert err.value.clients == [1, 3]


def test_lockstep_sgd_names_only_clients_whose_target_logit_is_minus_infinity():
    # class 2's logit is -inf on every row; only client 1's batch carries class 2
    params = np.zeros(LOGISTIC.param_count)
    params[-1] = -np.inf
    rng = np.random.default_rng(14)
    xs = [rng.normal(size=(n, 5)) for n in (6, 5, 7)]
    ys = [np.array([0, 1, 0, 1, 0, 1]), np.array([0, 2, 1, 0, 1]), np.array([1, 0] * 3 + [1])]
    rngs = [np.random.default_rng(k) for k in range(3)]
    with pytest.raises(models.NonFiniteLoss) as err:
        models.sgd_lockstep(LOGISTIC, params, models.prepare_lockstep(xs, ys, 8), 0.1, 1, rngs)
    assert err.value.clients == [1]
    rngs = [np.random.default_rng(k) for k in (0, 2)]
    inputs = models.prepare_lockstep(xs[::2], ys[::2], 8)
    got = models.sgd_lockstep(LOGISTIC, params, inputs, 0.1, 1, rngs)
    assert np.isfinite(got[:, :-1]).all()


def test_lockstep_sgd_names_a_client_whose_batch_loss_overflows_only_as_a_sum():
    # class 1's log-probability is about -1e308 on every row: one such row
    # leaves a batch loss finite, two make it overflow
    params = np.zeros(LOGISTIC.param_count)
    params[3 * 5 + 1] = -1e308
    xs = [np.zeros((n, 5)) for n in (4, 3, 2)]
    ys = [np.array([1, 0, 2, 0]), np.array([1, 1, 0]), np.array([0, 2])]
    rngs = [np.random.default_rng(k) for k in range(3)]
    with pytest.raises(models.NonFiniteLoss) as err:
        models.sgd_lockstep(LOGISTIC, params, models.prepare_lockstep(xs, ys, 4), 0.1, 1, rngs)
    assert err.value.clients == [1]
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        sequential_sgd_clients(LOGISTIC, params, xs[1:2], ys[1:2], 0.1, 1, 4, rngs[1:2])
    rngs = [np.random.default_rng(k) for k in (0, 2)]
    inputs = models.prepare_lockstep(xs[::2], ys[::2], 4)
    got = models.sgd_lockstep(LOGISTIC, params, inputs, 0.1, 1, rngs)
    args = (LOGISTIC, params, xs[::2], ys[::2], 0.1, 1, 4)
    rngs = [np.random.default_rng(k) for k in (0, 2)]
    assert np.array_equal(got, sequential_sgd_clients(*args, rngs))


@pytest.mark.parametrize("masked", [False, True], ids=["labels", "mask"])
def test_lockstep_sgd_rejects_labels_or_masks_that_do_not_match_the_rows(masked):
    rng = np.random.default_rng(15)
    params = models.init_params(LOGISTIC, rng)
    xs = [rng.normal(size=(6, 5)), rng.normal(size=(4, 5))]
    ys = [rng.integers(0, 3, size=6), rng.integers(0, 3, size=4)]
    masks = None
    if masked:  # a 9-entry mask for client 1's 4 rows
        masks = [np.zeros(6, bool), np.ones(9, bool)]
        client = 1
    else:  # eight labels for client 0's six rows
        ys[0] = rng.integers(0, 3, size=8)
        client = 0
    rngs = [np.random.default_rng(k) for k in range(2)]
    with pytest.raises(ValueError, match=f"client {client} has"):
        inputs = models.prepare_lockstep(xs, ys, 4, masks)
        models.sgd_lockstep(LOGISTIC, params, inputs, 0.1, 1, rngs, cr_term(0.05))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    sizes=st.integers(1, 40).flatmap(
        lambda k: st.lists(st.integers(1, 400), min_size=k, max_size=k)
    ),
    batch_size=st.integers(1, 32),
)
@example(data=Drawn([False] * 20), sizes=DIRICHLET_SIZES, batch_size=32)
def test_array_layout_equals_the_step_loop(data, sizes, batch_size):
    cr = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))))
    sizes = np.asarray(sizes, dtype=np.int64)
    rank, starts, slots, passes = models._lockstep_layout(sizes, cr, batch_size)
    want = loop_lockstep_layout(sizes, cr, batch_size)
    assert np.array_equal(rank, want[0]) and rank.dtype == want[0].dtype
    assert np.array_equal(starts, want[1]) and starts.dtype == want[1].dtype
    assert np.array_equal(slots, want[2]) and slots.dtype == want[2].dtype
    assert [group for groups in passes for group in groups] == want[3]
    for groups in passes:  # a pass is one step's groups on one path, row after row
        assert len({bool(cr[rank[j0]]) for j0, _, _, _ in groups}) == 1
        for (j0, j1, b, row), nxt in zip(groups, groups[1:]):
            assert nxt[3] == row + (j1 - j0) * b


def test_lockstep_sgd_peak_allocation_stays_under_three_times_the_features():
    # dirichlet_logreg's round: 20 clients of unequal size, logistic regression
    spec = ModelSpec(input_dim=20, hidden_dim=0, num_classes=10)
    rng = np.random.default_rng(16)
    params = models.init_params(spec, rng)
    xs = [rng.normal(size=(n, 20)) for n in DIRICHLET_SIZES]
    ys = [rng.integers(0, 10, size=n) for n in DIRICHLET_SIZES]
    rngs = [np.random.default_rng(k) for k in range(len(xs))]
    tracemalloc.start()
    try:
        models.sgd_lockstep(spec, params, models.prepare_lockstep(xs, ys, 32), 0.2, 2, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(x.nbytes for x in xs)


def test_lockstep_sgd_needs_a_generator_per_client():
    rng = np.random.default_rng(11)
    params = models.init_params(LOGISTIC, rng)
    x, y = rng.normal(size=(6, 5)), rng.integers(0, 3, size=6)
    shared = np.random.default_rng(0)
    with pytest.raises(ValueError, match="own generator"):
        inputs = models.prepare_lockstep([x, x], [y, y], 4)
        models.sgd_lockstep(LOGISTIC, params, inputs, 0.1, 1, [shared, shared])


def _dirichlet_round(seed, hidden=0):
    """dirichlet_logreg's round shapes: 20 unequal clients, 20 features, 10 classes."""
    spec = ModelSpec(input_dim=20, hidden_dim=hidden, num_classes=10)
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(n, 20)) for n in DIRICHLET_SIZES]
    ys = [rng.integers(0, 10, size=n) for n in DIRICHLET_SIZES]
    return spec, xs, ys


def test_prepared_lockstep_inputs_are_read_only_copies():
    _, xs, ys = _dirichlet_round(17)
    masks = [None] * len(xs)
    masks[3] = np.arange(len(xs[3])) % 2 == 0
    inputs = models.prepare_lockstep(xs, ys, 32, masks)
    arrays = [inputs.sizes, inputs.rank, inputs.starts, inputs.slots, inputs.x, inputs.y]
    arrays += [inputs.mask] + [row_b for *_, row_b, _ in inputs.passes if np.ndim(row_b)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
    assert not any(np.shares_memory(inputs.x, x) for x in xs)
    xs[0][0, 0] = 99.0  # the caller's rows stay the caller's
    assert 99.0 not in inputs.x


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_prepared_inputs_reused_across_calls_train_as_fresh_ones(hidden):
    # one prepared set, three rounds from three starts with fresh streams:
    # each round equals an sgd_lockstep call on inputs prepared for it alone
    spec, xs, ys = _dirichlet_round(18, hidden)
    masks = [None] * len(xs)
    masks[5] = np.arange(len(xs[5])) < 40
    fn = cr_term(0.05)
    inputs = models.prepare_lockstep(xs, ys, 32, masks)
    x_before = inputs.x.copy()
    rng = np.random.default_rng(19)
    for t in range(3):
        start = models.init_params(spec, rng)

        def streams():
            return [np.random.default_rng([t, k]) for k in range(len(xs))]

        got = models.sgd_lockstep(spec, start, inputs, 0.2, 2, streams(), fn)
        fresh = models.prepare_lockstep(xs, ys, 32, masks)
        want = models.sgd_lockstep(spec, start, fresh, 0.2, 2, streams(), fn)
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(inputs.x), _bits(x_before))


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_prepared_inputs_reused_on_one_workspace_train_as_fresh_ones(hidden, monkeypatch):
    # the same three rounds on one workspace, with evaluation losses and a
    # test accuracy on it between them: the views laid out for the inputs
    # serve every call, until a buffer is replaced after the second
    spec, xs, ys = _dirichlet_round(18, hidden)
    masks = [None] * len(xs)
    masks[5] = np.arange(len(xs[5])) < 40
    fn = cr_term(0.05)
    inputs = models.prepare_lockstep(xs, ys, 32, masks)
    workspace = models.Workspace()
    evaluation = models.StackedBatches(spec, xs, ys, workspace)
    laid_out, lay_out = [], models._lockstep_views
    monkeypatch.setattr(
        models, "_lockstep_views", lambda *a: laid_out.append(a[2] is workspace) or lay_out(*a)
    )
    rng = np.random.default_rng(19)
    for t in range(3):
        start = models.init_params(spec, rng)

        def streams():
            return [np.random.default_rng([t, k]) for k in range(len(xs))]

        got = models.sgd_lockstep(spec, start, inputs, 0.2, 2, streams(), fn, workspace)
        fresh = models.prepare_lockstep(xs, ys, 32, masks)
        want = models.sgd_lockstep(spec, start, fresh, 0.2, 2, streams(), fn)
        assert np.array_equal(_bits(got), _bits(want))
        model = want.mean(axis=0)
        losses = evaluation.losses(model)
        for x, y, loss in zip(xs, ys, losses):
            assert np.array_equal(_bits(loss), _bits(models.per_sample_losses(spec, model, x, y)))
        acc = models.accuracy(spec, model, xs[2], ys[2], workspace)
        assert acc == models.accuracy(spec, model, xs[2], ys[2])
        if t == 1:
            workspace.array("x", (4 * len(inputs.x), spec.input_dim))  # replaces the features'
    assert laid_out.count(True) == 2


def test_workspace_layouts_last_until_a_buffer_is_made_or_replaced():
    workspace = models.Workspace()
    built = []

    def build():
        built.append(1)
        return workspace.array("a", (4,))

    kept = workspace.layout(1, build)
    assert workspace.layout(1, build) is kept and len(built) == 1
    assert np.shares_memory(workspace.array("a", (3,)), kept)  # no buffer made
    assert workspace.layout(1, build) is kept
    workspace.layout(2, build)  # another key
    assert len(built) == 2
    workspace.array("b", (1,))
    workspace.layout(2, build)
    assert len(built) == 3
    workspace.array("a", (9,))  # replaces the buffer the kept view is of
    view = workspace.layout(2, build)
    assert len(built) == 4 and np.shares_memory(view, workspace.array("a", (9,)))
    assert not np.shares_memory(view, kept)


def test_a_workspace_buffer_keeps_its_dtype():
    workspace = models.Workspace()
    workspace.array("x", (10,))
    for shape in ((4,), (20,)):
        with pytest.raises(TypeError, match="workspace buffer 'x' holds float64, not int64"):
            workspace.array("x", shape, np.int64)
    assert workspace.array("x", (4,)).dtype == np.float64
    assert workspace.array("order", (4,), np.int64).dtype == np.int64


# Signed zeros, NaNs of both signs, infinities and subnormals: every pair of
# a pre-activation and a backpropagated value below meets once.
SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -2.5])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("shape", [(10, 10), (40, 32, 64)], ids=["pairs", "benchmark"])
def test_relu_backward_is_bit_equal_to_where(shape):
    rng = np.random.default_rng(12)
    pre, m = rng.normal(size=shape), rng.normal(size=shape)
    special_pre, special_m = np.meshgrid(SPECIAL, SPECIAL)
    pre.reshape(-1)[: special_pre.size] = special_pre.ravel()
    m.reshape(-1)[: special_m.size] = special_m.ravel()
    want = np.where(pre > 0.0, m, 0.0)
    dhid = m.copy()
    got = models._relu_backward(pre, dhid)
    assert got is dhid
    assert np.array_equal(_bits(got), _bits(want))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.integers(1, 40).flatmap(
        lambda k: st.lists(st.integers(1, 70), min_size=k, max_size=k)
    ),
    batch_size=st.integers(1, 32),
    epochs=st.integers(1, 2),
    hidden=st.sampled_from([0, 64]),
    seed=st.integers(0, 2**16),
)
@example(sizes=[64] * 40, batch_size=32, epochs=1, hidden=64, seed=0)  # scale_k40's round
@example(sizes=DIRICHLET_SIZES, batch_size=32, epochs=2, hidden=0, seed=0)  # dirichlet_logreg's
def test_lockstep_sgd_matches_sequential_oracle_bit_for_bit_at_benchmark_shapes(
    sizes, batch_size, epochs, hidden, seed
):
    # compares the bits, so a -0.0 where the oracle has +0.0 fails too
    spec = ModelSpec(input_dim=12, hidden_dim=hidden, num_classes=10)
    rng = np.random.default_rng(seed)
    params = models.init_params(spec, rng)
    xs = [3.0 * rng.normal(size=(n, 12)) for n in sizes]
    ys = [rng.integers(0, 10, size=n) for n in sizes]

    def streams():
        return [np.random.default_rng([seed, k]) for k in range(len(sizes))]

    inputs = models.prepare_lockstep(xs, ys, batch_size)
    got = models.sgd_lockstep(spec, params, inputs, 0.3, epochs, streams())
    args = (spec, params, xs, ys, 0.3, epochs, batch_size)
    assert np.array_equal(_bits(got), _bits(sequential_sgd_clients(*args, streams())))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_stacked_losses_equal_each_batch_alone(spec):
    rng = np.random.default_rng(13)
    params = models.init_params(spec, rng)
    x = 2.0 * rng.normal(size=(4, 9, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=(4, 9))
    got = models.per_sample_losses(spec, params, x, y)
    assert got.shape == (4, 9)
    for g in range(4):
        alone = models.per_sample_losses(spec, params, x[g], y[g])
        assert np.array_equal(_bits(got[g]), _bits(alone))
    with pytest.raises(ValueError):
        models.per_sample_losses(spec, params, x[..., :-1], y)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_a_list_of_stacks_gives_each_batch_its_own_losses(spec):
    rng = np.random.default_rng(17)
    params = models.init_params(spec, rng)
    xs = [2.0 * rng.normal(size=(3, 7, spec.input_dim)), 2.0 * rng.normal(size=(1, 4, 5))]
    ys = [rng.integers(0, spec.num_classes, size=(3, 7)), rng.integers(0, 3, size=(1, 4))]
    got = models.per_sample_losses(spec, params, xs, ys)
    want = [models.per_sample_losses(spec, params, x, y) for x, y in zip(xs[0], ys[0])]
    want.append(models.per_sample_losses(spec, params, xs[1][0], ys[1][0]))
    assert np.array_equal(_bits(got), _bits(np.concatenate(want)))
    with pytest.raises(ValueError, match="24 labels for 25 samples"):
        models.per_sample_losses(spec, params, xs, [ys[0], ys[1][:, :-1]])


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_a_model_per_batch_gives_each_batch_the_losses_of_its_model_alone(spec):
    rng = np.random.default_rng(19)
    theta = np.stack([models.init_params(spec, rng) for _ in range(4)])
    xs = [2.0 * rng.normal(size=(3, 7, spec.input_dim)), 2.0 * rng.normal(size=(1, 4, 5))]
    ys = [rng.integers(0, spec.num_classes, size=(3, 7)), rng.integers(0, 3, size=(1, 4))]
    got = models.per_sample_losses(spec, theta, xs, ys)
    batches = [*zip(xs[0], ys[0]), (xs[1][0], ys[1][0])]
    want = [models.per_sample_losses(spec, p, x, y) for p, (x, y) in zip(theta, batches)]
    assert np.array_equal(_bits(got), _bits(np.concatenate(want)))
    stacked = models.per_sample_losses(spec, theta[:3], xs[0], ys[0])
    assert np.array_equal(_bits(stacked), _bits(np.stack(want[:3])))
    with pytest.raises(ValueError, match=r"expected \(4, \d+\): one model per batch"):
        models.per_sample_losses(spec, theta[:3], xs, ys)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
@pytest.mark.parametrize("one_model", [True, False], ids=["one_model", "model_per_batch"])
def test_losses_by_batch_equal_each_batch_alone(spec, one_model):
    rng = np.random.default_rng(23)
    sizes = [9, 4, 9, 13, 4, 9]  # two repeated sizes and one lone one
    xs = [2.0 * rng.normal(size=(n, spec.input_dim)) for n in sizes]
    ys = [rng.integers(0, spec.num_classes, size=n) for n in sizes]
    theta = np.stack([models.init_params(spec, rng) for _ in sizes])
    params = theta[0] if one_model else theta
    got = models.StackedBatches(spec, xs, ys).losses(params)
    for i, (x, y) in enumerate(zip(xs, ys)):
        alone = models.per_sample_losses(spec, theta[0 if one_model else i], x, y)
        assert np.array_equal(_bits(got[i]), _bits(alone))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_losses_in_smaller_chunks_keep_their_bits(spec, monkeypatch):
    # forwards of one or two batches of a stack, log-softmax over a few rows
    rng = np.random.default_rng(29)
    sizes = [9, 4, 9, 9, 4, 9, 13]
    xs = [2.0 * rng.normal(size=(n, spec.input_dim)) for n in sizes]
    ys = [rng.integers(0, spec.num_classes, size=n) for n in sizes]
    theta = np.stack([models.init_params(spec, rng) for _ in sizes])
    want = [models.StackedBatches(spec, xs, ys).losses(p) for p in (theta[0], theta)]
    row_bytes = 8 * (spec.hidden_dim + spec.num_classes)
    for chunk_bytes in (1, 2 * 9 * row_bytes):
        monkeypatch.setattr(models, "STACK_CHUNK_BYTES", chunk_bytes)
        for params, losses in zip((theta[0], theta), want):
            got = models.StackedBatches(spec, xs, ys).losses(params)
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, losses))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
@pytest.mark.parametrize("batches_a_pass", [1, 2])
def test_batches_planned_in_smaller_chunks_give_each_batch_its_losses_alone(
    spec, batches_a_pass, monkeypatch
):
    # the plan is laid out at construction, so it keeps the chunk size it
    # was made with: passes of one or two batches of 9 rows
    rng = np.random.default_rng(37)
    sizes = [9, 4, 9, 9, 4, 9, 13]
    xs = [2.0 * rng.normal(size=(n, spec.input_dim)) for n in sizes]
    ys = [rng.integers(0, spec.num_classes, size=n) for n in sizes]
    theta = np.stack([models.init_params(spec, rng) for _ in sizes])
    chunk_bytes = batches_a_pass * 9 * 8 * (spec.hidden_dim + spec.num_classes)
    with monkeypatch.context() as patched:
        patched.setattr(models, "STACK_CHUNK_BYTES", chunk_bytes)
        batches = models.StackedBatches(spec, xs, ys)
    passes, forward = [], models._forward
    monkeypatch.setattr(models, "_forward", lambda *a, **k: passes.append(1) or forward(*a, **k))
    for params in (theta[0], theta, theta[0]):
        passes.clear()
        got = batches.losses(params)
        assert len(passes) > len(batches.stacks)  # the default size takes one pass a stack
        for i, (x, y) in enumerate(zip(xs, ys)):
            model = params if params.ndim == 1 else theta[i]
            alone = models.per_sample_losses(spec, model, x, y)
            assert np.array_equal(_bits(got[i]), _bits(alone))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["loss-logistic", "loss-mlp"])
def test_measure_equals_a_per_batch_loop_across_chunks_and_stacks(spec, monkeypatch):
    # `per_sample_losses` over forward chunks of at most 2 batches of 10 rows
    # (chunk = 2); runs of at least 25 (logistic) or 75 (mlp) rows, so a run
    # takes several forward chunks and goes on from one stack into the next
    n, chunk = 10, 2
    rng = np.random.default_rng(31)
    pools = [2.0 * rng.normal(size=(n, spec.input_dim)) for _ in range(2)]
    stacks = [
        np.broadcast_to(pools[0], (1, n, spec.input_dim)),  # one model
        np.broadcast_to(pools[1], (chunk + 1, n, spec.input_dim)),  # chunk + 1 models
        2.0 * rng.normal(size=(3, n, spec.input_dim)),  # one model per batch
        2.0 * rng.normal(size=(2, 7, spec.input_dim)),
    ]
    batches = [b for s in stacks for b in s]
    theta = np.stack([models.init_params(spec, rng) for _ in batches])
    ys = [rng.integers(0, spec.num_classes, size=len(b)) for b in batches]
    want = []
    for p, x, y in zip(theta, batches, ys):
        logits, _, _ = models._logits_and_hidden(spec, p, x)
        want.append(-models.log_softmax(logits)[np.arange(len(y)), y])
    monkeypatch.setattr(models, "STACK_CHUNK_BYTES", 8 * (spec.hidden_dim + spec.num_classes) * 25)
    runs, core = [], models._softmax_core
    monkeypatch.setattr(
        models, "_softmax_core", lambda z, *a, **k: runs.append(len(z)) or core(z, *a, **k)
    )
    got = models.per_sample_losses(spec, theta, stacks, ys)
    assert runs == ([30, 30, 24] if spec.hidden_dim == 0 else [84])
    assert np.array_equal(_bits(got), _bits(np.concatenate(want)))
    with pytest.raises(ValueError, match="83 labels for 84 samples"):
        models.per_sample_losses(spec, theta, stacks, [np.concatenate(ys)[1:]])
