"""Tests for loss intervals, the bandit policy, and regularized recycling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import compensation as cmp
from fedpriv import models
from fedpriv.compensation import BanditState
from fedpriv.data import ClientDataset
from fedpriv.models import ModelSpec
from harness import library_configs
from oracles import cr_loss_and_grad, finite_difference_grad, max_rel_error
from oracles import percentile_normalize_reward, sequential_sgd


# --- intervals -------------------------------------------------------------


def test_intervals_median_split():
    iv = cmp.init_intervals(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(iv.members(0), [0, 1])
    assert np.array_equal(iv.members(1), [2, 3])


def test_intervals_all_equal_losses_split_by_index():
    iv = cmp.init_intervals(np.zeros(4), 2)
    assert np.array_equal(iv.normalized, np.zeros(4))
    assert np.array_equal(iv.members(0), [0, 1])
    assert np.array_equal(iv.members(1), [2, 3])


def test_intervals_min_max_normalization():
    iv = cmp.init_intervals(np.array([0.0, 5.0, 10.0]), 3)
    assert np.allclose(iv.normalized, [0.0, 0.5, 1.0])


def test_intervals_every_sample_in_exactly_one_bucket():
    rng = np.random.default_rng(0)
    losses = rng.exponential(size=53)
    iv = cmp.init_intervals(losses, 7)
    merged = np.concatenate([iv.members(j) for j in range(7)])
    assert sorted(merged) == list(range(53))
    # bucket ranks respect the sorted order of normalized losses
    for j in range(6):
        assert losses[iv.members(j)].max() <= losses[iv.members(j + 1)].min()


def test_intervals_reject_more_buckets_than_samples():
    with pytest.raises(ValueError):
        cmp.init_intervals(np.ones(3), 4)


# --- rewards ---------------------------------------------------------------


def test_reward_examples():
    assert cmp.compute_reward(1.0, 1.0) == 0.0
    assert cmp.compute_reward(1.2, 0.9) == pytest.approx(0.3)
    assert cmp.compute_reward(0.5, 0.9) < 0


def test_normalize_reward_midpoint_and_clipping():
    history = np.linspace(0.0, 1.0, 11)  # r20=0.2, r80=0.8
    assert cmp.normalize_reward(0.5, history) == pytest.approx(0.0)
    assert cmp.normalize_reward(5.0, history) == 1.0
    assert cmp.normalize_reward(-5.0, history) == -1.0


def test_normalize_reward_formula():
    history = [0.0, 0.25, 0.5, 0.75, 1.0]  # r20=0.2... use explicit percentiles
    r20, r80 = np.percentile(history, [20, 80])
    got = cmp.normalize_reward(0.25, history)
    assert got == pytest.approx(np.clip(2 * (0.25 - r20) / (r80 - r20) - 1, -1, 1))


def test_normalize_reward_unit_percentile_span():
    # history whose 20th/80th percentiles are exactly 0 and 1
    history = [0.0] * 5 + [1.0] * 5
    assert cmp.normalize_reward(0.25, history) == pytest.approx(-0.5)


def test_normalize_reward_degenerate_history():
    assert cmp.normalize_reward(0.7, [0.3, 0.3, 0.3]) == 0.0
    with pytest.raises(ValueError):
        cmp.normalize_reward(0.1, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_normalize_reward_rejects_a_non_finite_history(bad):
    # a NaN has no place in a sorted history, so its percentiles would be arbitrary
    with pytest.raises(ValueError, match="reward history must be finite"):
        cmp.normalize_reward(0.1, [0.0, bad, 1.0, 2.0, 3.0])


# few distinct values, so that histories hold ties, and both zeros
REWARDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=500, deadline=None)
@given(reward=REWARDS, history=st.lists(REWARDS, min_size=1, max_size=60))
def test_normalize_reward_equals_the_percentile_version_bit_for_bit(reward, history):
    with np.errstate(over="ignore"):  # extreme rewards overflow both versions alike
        want = np.float64(percentile_normalize_reward(reward, history)).view(np.int64)
    assert np.float64(cmp.normalize_reward(reward, history)).view(np.int64) == want
    assert np.float64(cmp.normalize_reward(reward, sorted(history))).view(np.int64) == want


def test_bandit_history_stays_ascending():
    bandit = BanditState.fresh(2, 0.1)
    plan = (np.arange(3), 0, 0)
    for k, (before, after) in enumerate([(1.0, 0.5), (1.0, 0.9), (1.0, 1.2), (1.0, 0.1)]):
        cmp.reward_local_update(0, plan, (before, after), k + 1, bandit)
    assert bandit.rewards == [1.0 - 1.2, 1.0 - 0.9, 1.0 - 0.5, 1.0 - 0.1]


# --- bandit ----------------------------------------------------------------


def test_exp3_uniform_probabilities():
    state = BanditState.fresh(5, eta=0.3)
    assert np.allclose(state.probabilities(), 0.2)
    state = BanditState(weights=np.array([1.0, 9.0]), eta=1.0)
    assert np.allclose(state.probabilities(), 0.5)  # pure exploration


def test_exp3_probabilities_sum_to_one_after_updates():
    state = BanditState.fresh(7, eta=0.1)
    rng = np.random.default_rng(1)
    for _ in range(200):
        arm = cmp.exp3_select(state, rng)
        cmp.exp3_update(state, arm, float(rng.uniform(-1, 1)))
    assert abs(state.probabilities().sum() - 1.0) <= 1e-9
    assert np.all(state.weights > 0)
    assert np.all(np.isfinite(state.weights))


def test_exp3_selection_frequencies_match_probabilities():
    # statistical oracle: empirical frequencies within 3 standard errors
    state = BanditState(weights=np.array([1.0, 2.0, 5.0]), eta=0.2)
    p = state.probabilities()
    rng = np.random.default_rng(2)
    n = 100_000
    counts = np.bincount([cmp.exp3_select(state, rng) for _ in range(n)], minlength=3)
    for j in range(3):
        se = math.sqrt(p[j] * (1 - p[j]) / n)
        assert abs(counts[j] / n - p[j]) <= 3 * se


def test_exp3_update_worst_reward_is_neutral():
    state = BanditState.fresh(4, eta=0.1)
    cmp.exp3_update(state, 2, -1.0)
    assert np.array_equal(state.weights, np.ones(4))


def test_exp3_update_formula():
    state = BanditState.fresh(2, eta=0.1)
    cmp.exp3_update(state, 0, 1.0)
    # uniform weights, M=2: p=0.5, mapped gain 1/0.5=2, factor exp(0.1*2/2)
    assert state.weights[0] == pytest.approx(math.exp(0.1))
    assert state.weights[1] == 1.0


def test_exp3_repeated_wins_increase_probability():
    state = BanditState.fresh(3, eta=0.1)
    last = state.probabilities()[1]
    for _ in range(10):
        cmp.exp3_update(state, 1, 1.0)
        now = state.probabilities()[1]
        assert now > last
        last = now


# --- recycling selection ---------------------------------------------------


def _intervals_for(losses, m):
    return cmp.init_intervals(np.asarray(losses, dtype=np.float64), m)


def test_select_recycled_subset_of_assigned_is_empty():
    iv = _intervals_for([0.1, 0.2, 0.3, 0.4], 2)
    out = cmp.select_recycled(iv, 0, np.array([0, 1]), 1.0, 4, np.random.default_rng(0))
    assert len(out) == 0


def test_select_recycled_cap_not_binding():
    iv = _intervals_for([0.1, 0.2, 0.3, 0.4], 2)
    out = cmp.select_recycled(iv, 1, np.array([0]), 1.0, 4, np.random.default_rng(0))
    assert np.array_equal(out, [2, 3])


def test_select_recycled_floor_cap():
    losses = np.linspace(0, 1, 100)
    iv = _intervals_for(losses, 5)  # interval 0 holds positions 0..19
    out = cmp.select_recycled(
        iv, 0, np.empty(0, dtype=np.int64), 0.05, 100, np.random.default_rng(1)
    )
    assert len(out) == 5  # floor(0.05 * 100)
    assert set(out) <= set(range(20))


# --- soft labels and regularized loss ---------------------------------------


def test_soft_label_formula():
    assert np.allclose(cmp.soft_label(np.array([[0.7, 0.2, 0.1]]), [0]), [[0.7, 0.15, 0.15]])
    # rows are independent: each keeps its own true-class probability
    probs = np.array([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3]])
    assert np.allclose(cmp.soft_label(probs, [0, 2]), [[0.7, 0.15, 0.15], [0.35, 0.35, 0.3]])


def test_soft_label_one_hot_and_uniform():
    assert np.allclose(cmp.soft_label(np.array([[0.0, 1.0, 0.0]]), [1]), [[0.0, 1.0, 0.0]])
    probs = np.full((1, 4), 0.25)
    assert np.allclose(cmp.soft_label(probs, [2]), probs)


def test_soft_label_needs_two_classes():
    with pytest.raises(ValueError):
        cmp.soft_label(np.array([[1.0]]), [0])


def test_cr_loss_zero_kl_when_output_matches_target():
    # zero parameters -> uniform output; its soft label is also uniform
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    params = np.zeros(spec.param_count)
    x = np.ones(4)
    loss_mu0, _ = cr_loss_and_grad(spec, params, x, 1, mu=0.0)
    assert loss_mu0 == pytest.approx(0.0, abs=1e-12)
    loss_mu, _ = cr_loss_and_grad(spec, params, x, 1, mu=0.4)
    assert loss_mu == pytest.approx(-0.4 * math.log(3), abs=1e-12)


@pytest.mark.parametrize("hidden", [0, 6], ids=["logistic", "mlp"])
def test_cr_gradient_matches_finite_differences(hidden):
    spec = ModelSpec(input_dim=5, hidden_dim=hidden, num_classes=3)
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        params = models.init_params(spec, rng)
        x = rng.normal(size=5)
        y = int(rng.integers(0, 3))
        mu = float(rng.uniform(0, 0.5))
        _, grad = cr_loss_and_grad(spec, params, x, y, mu)
        fd = finite_difference_grad(lambda p: cr_loss_and_grad(spec, p, x, y, mu)[0], params)
        assert max_rel_error(grad, fd) <= 1e-4


def test_cr_loss_bounded_below_by_entropy_term():
    spec = ModelSpec(input_dim=3, hidden_dim=5, num_classes=4)
    rng = np.random.default_rng(9)
    for _ in range(50):
        params = models.init_params(spec, rng) * rng.uniform(0.1, 20)
        x = rng.normal(size=3)
        mu = float(rng.uniform(0, 1))
        loss, _ = cr_loss_and_grad(spec, params, x, int(rng.integers(0, 4)), mu)
        assert loss >= -mu * math.log(4) - 1e-12


# --- full local update -----------------------------------------------------


def _client(seed=0, n=40, num_classes=3, dim=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, num_classes, size=n).astype(np.int64)
    val_x = rng.normal(size=(8, dim))
    val_y = rng.integers(0, num_classes, size=8).astype(np.int64)
    return ClientDataset(
        client_id=0,
        train_X=x,
        train_y=y,
        val_X=val_x,
        val_y=val_y,
        train_indices=np.arange(n),
        val_indices=np.arange(n, n + 8),
    )


def _defense(**fields):
    """The CoalitionDefenseConfig of a validated 3-class coalition config."""
    fields = dict(num_classes=3, rounds=12, defense="coalition", coalition=(0, 1), **fields)
    return library_configs(**fields)[1]


def test_compensated_update_before_start_round_has_no_recycling():
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    client = _client()
    bandit = BanditState.fresh(10, 0.1)
    params, tele = cmp.compensated_local_update(
        spec,
        np.zeros(spec.param_count),
        client,
        np.arange(len(client.train_y)),
        round_t=3,
        defense=_defense(t0=10),
        bandit=bandit,
        lr=0.1,
        epochs=1,
        batch_size=16,
        train_rng=np.random.default_rng(1),
        bandit_rng=np.random.default_rng(2),
    )
    assert tele.n_recycled == 0
    assert tele.arm == -1
    assert len(bandit.rewards) == 0
    assert not np.array_equal(params, np.zeros(spec.param_count))


def test_compensated_update_degenerate_is_plain_sgd():
    # all classes assigned, no recycling capacity: identical to undefended SGD
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    client = _client()
    global_params = models.init_params(spec, np.random.default_rng(3))
    bandit = BanditState.fresh(10, 0.1)
    params, tele = cmp.compensated_local_update(
        spec,
        global_params,
        client,
        np.arange(len(client.train_y)),
        round_t=12,
        defense=_defense(t0=10, r_l=0.0, mu=0.0),
        bandit=bandit,
        lr=0.1,
        epochs=2,
        batch_size=8,
        train_rng=np.random.default_rng(7),
        bandit_rng=np.random.default_rng(8),
    )
    direct = models.sgd_epochs(
        spec, global_params, client.train_X, client.train_y, 0.1, 2, 8, np.random.default_rng(7)
    )
    assert np.array_equal(params, direct)
    assert tele.n_recycled == 0
    assert len(bandit.rewards) == 1  # reward still recorded


@pytest.mark.parametrize("hidden, n, batch_size", [(0, 23, 8), (6, 23, 8), (6, 5, 8), (6, 16, 4)])
def test_combined_sgd_matches_sequential_oracle(hidden, n, batch_size):
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(12)
    params = models.init_params(spec, rng)
    x, y = 2.0 * rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
    mask = rng.random(n) < 0.4
    mu = 0.05

    got = cmp.combined_sgd_epochs(
        spec, params, x, y, mask, mu, 0.3, 2, batch_size, np.random.default_rng(3)
    )
    want = sequential_sgd(
        spec, params, x, y, 0.3, 2, batch_size, np.random.default_rng(3), (mask, cmp.cr_term(mu))
    )
    assert np.array_equal(got, want)


@pytest.mark.parametrize("hidden", [0, 6], ids=["logistic", "mlp"])
def test_combined_sgd_step_is_ce_plus_checked_cr_gradient(hidden):
    # one recycled sample, one step: the training path must take the gradients
    # that the finite-difference tests check
    spec = ModelSpec(input_dim=5, hidden_dim=hidden, num_classes=3)
    for seed in range(50):
        rng = np.random.default_rng(700 + seed)
        params = models.init_params(spec, rng) * rng.uniform(0.5, 5)
        x = rng.normal(size=(1, 5))
        y = rng.integers(0, 3, size=1)
        mu, lr = float(rng.uniform(0, 0.5)), float(rng.uniform(0.01, 1))
        got = cmp.combined_sgd_epochs(
            spec, params, x, y, np.array([True]), mu, lr, 1, 1, np.random.default_rng(seed)
        )
        _, ce_grad = models.loss_and_grad(spec, params, x, y)
        _, cr_grad = cr_loss_and_grad(spec, params, x[0], int(y[0]), mu)
        assert np.max(np.abs(got - (params - lr * (ce_grad + cr_grad)))) <= 1e-12


def test_compensated_update_empty_client_returns_global():
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    client = _client()
    global_params = models.init_params(spec, np.random.default_rng(4))
    bandit = BanditState.fresh(10, 0.1)
    params, tele = cmp.compensated_local_update(
        spec,
        global_params,
        client,
        np.empty(0, dtype=np.int64),
        round_t=12,
        defense=_defense(t0=10, r_l=0.0),
        bandit=bandit,
        lr=0.1,
        epochs=1,
        batch_size=8,
        train_rng=np.random.default_rng(5),
        bandit_rng=np.random.default_rng(6),
    )
    assert np.array_equal(params, global_params)
    assert tele.n_assigned == 0 and tele.n_recycled == 0
    assert len(bandit.rewards) == 0  # bandit update skipped


def test_compensated_update_respects_recycle_cap():
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    client = _client(n=50)
    bandit = BanditState.fresh(5, 0.1)
    defense = _defense(t0=2, intervals=5, r_l=0.1)
    global_params = models.init_params(spec, np.random.default_rng(11))
    assigned = np.flatnonzero(client.train_y == 0)
    for t in range(2, 12):
        global_params, tele = cmp.compensated_local_update(
            spec,
            global_params,
            client,
            assigned,
            round_t=t,
            defense=defense,
            bandit=bandit,
            lr=0.05,
            epochs=1,
            batch_size=16,
            train_rng=np.random.default_rng(100 + t),
            bandit_rng=np.random.default_rng(200 + t),
        )
        assert tele.n_recycled <= int(0.1 * 50)
    assert len(bandit.rewards) == 10
