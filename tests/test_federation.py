"""Tests for aggregation, perturbation baselines, and the round loop."""

import gc
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpriv import experiment as ex
from fedpriv import federation as fed
from fedpriv import models
from fedpriv import rng as fedrng
from fedpriv.config import ConfigError
from fedpriv.data import ClientDataset
from fedpriv.models import ModelSpec
from harness import library_configs, make_config, run_from_config
from oracles import loop_aggregate, recorded_lockstep_inputs, sequential_sgd_lockstep


# --- aggregation -----------------------------------------------------------


def test_aggregate_identical_vectors():
    v = np.array([1.0, -2.0, 3.0])
    out = fed.aggregate_weighted([v, v, v], [5.0, 1.0, 2.0])
    assert np.allclose(out, v)


def test_aggregate_equal_weights_mean():
    a, b = np.array([2.0, 0.0]), np.array([0.0, 4.0])
    assert np.allclose(fed.aggregate_weighted([a, b], [1.0, 1.0]), [1.0, 2.0])


def test_aggregate_hand_weights():
    a, b = np.array([1.0, 5.0, -3.0]), np.array([9.0, 1.0, 1.0])
    out = fed.aggregate_weighted([a, b], [3.0, 1.0])
    assert np.allclose(out, 0.75 * a + 0.25 * b)  # direct arithmetic oracle


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=6) for _ in range(4)]
    w = rng.uniform(0.5, 2.0, size=4)
    base = fed.aggregate_weighted(vecs, w)
    perm = [2, 0, 3, 1]
    out = fed.aggregate_weighted([vecs[i] for i in perm], w[perm])
    assert np.allclose(base, out, atol=1e-12)


def test_aggregate_rejects_mismatch():
    with pytest.raises(ValueError):
        fed.aggregate_weighted([np.zeros(2), np.zeros(3)], [1.0, 1.0])
    with pytest.raises(ValueError):
        fed.aggregate_weighted([np.zeros(2)], [0.0])


@pytest.mark.parametrize("weights", [[1.0, np.nan], [np.inf, 1.0], [-np.inf, 2.0]])
def test_aggregate_rejects_non_finite_weights_naming_them(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused up front, not warned about
        with pytest.raises(ValueError, match=r"weights must be finite, got \[.*(nan|inf)"):
            fed.aggregate_weighted([np.ones(3), np.ones(3)], weights)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 64),
    p=st.integers(1, 50),
    seed=st.integers(0, 2**16),
    as_rows=st.booleans(),
)
@example(k=9, p=1, seed=0, as_rows=False)  # numpy would sum this column pairwise
@example(k=64, p=1, seed=1, as_rows=True)
def test_aggregate_keeps_the_bits_of_the_loop(k, p, seed, as_rows):
    # magnitudes over six decades, signed zeros and zero weights, so that the
    # order of the additions and the sign of a zero sum both show
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(k, p)) * 10.0 ** rng.integers(-3, 4, size=(k, p))
    params[rng.random((k, p)) < 0.3] = -0.0
    weights = rng.integers(0, 400, size=k).astype(np.float64)
    weights[0] += 1.0
    vectors = list(params) if as_rows else params
    got = fed.aggregate_weighted(vectors, weights)
    assert np.array_equal(_bits(got), _bits(loop_aggregate(vectors, weights)))


# --- baseline defenses -----------------------------------------------------


def test_grad_sparsify_identity_at_full_rate():
    delta = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(fed.grad_sparsify(delta, 1.0), delta)


def test_grad_sparsify_hand_ranked():
    assert np.array_equal(fed.grad_sparsify(np.array([3.0, -1.0, 2.0]), 1 / 3), [3.0, 0.0, 0.0])


def test_grad_sparsify_tie_break_by_lower_index():
    out = fed.grad_sparsify(np.array([2.0, -2.0, 2.0, 0.0]), 0.5)
    assert np.array_equal(out, [2.0, -2.0, 0.0, 0.0])


def test_grad_sparsify_zero_delta():
    assert np.array_equal(fed.grad_sparsify(np.zeros(4), 0.5), np.zeros(4))


def test_grad_noise_zero_sigma_identity():
    delta = np.arange(5, dtype=np.float64)
    assert np.array_equal(fed.grad_gaussian_noise(delta, 0.0, np.random.default_rng(0)), delta)


def test_grad_noise_statistics():
    n = 100_000
    delta = np.zeros(n)
    sigma = 0.5
    out = fed.grad_gaussian_noise(delta, sigma, np.random.default_rng(1))
    assert abs(out.mean()) <= 3 * sigma / np.sqrt(n)
    assert abs(out.var() - sigma**2) <= 0.05 * sigma**2


# --- round loop ------------------------------------------------------------


def _single_client_setup():
    spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10).astype(np.int64)
    client = ClientDataset(
        client_id=0,
        train_X=x,
        train_y=y,
        val_X=np.empty((0, 3)),
        val_y=np.empty(0, dtype=np.int64),
        train_indices=np.arange(10),
        val_indices=np.empty(0, dtype=np.int64),
    )
    return spec, client, x, y


def test_run_round_single_client_global_equals_local():
    spec, client, x, y = _single_client_setup()
    cfg, _ = library_configs(num_clients=2, rounds=1, lr=0.1, batch_size=4, seed=3)
    with pytest.raises(ConfigError, match=r"^config field 'fl.K': need at least 2 clients$"):
        fed.init_training(replace(cfg, num_clients=1), spec, [client], x, y)
    # so the second client holds no row: it trains nothing and weighs 0
    none = np.empty(0, dtype=np.int64)
    empty = ClientDataset(1, np.empty((0, 3)), none, np.empty((0, 3)), none, none, none)
    state = fed.init_training(cfg, spec, [client, empty], x, y)
    start = state.global_params.copy()
    fed.run_round(state, 1)
    from fedpriv.rng import stream

    expected = models.sgd_epochs(spec, start, x, y, 0.1, 1, 4, stream(3, "train", 0, 1))
    assert np.allclose(state.global_params, expected, atol=1e-12)


def test_run_round_identical_uploads_equal_global():
    # zero learning rate: every local equals the broadcast global
    cfg = make_config(clients=4, rounds=1, lr=0.0)
    prep, state = run_from_config(cfg)
    assert np.allclose(state.global_params, state.store.globals[0], atol=1e-12)


def test_snapshot_rounds_cadence():
    cfg = make_config(clients=3, rounds=25, snapshot_every=10, samples_per_class=30)
    _, state = run_from_config(cfg)
    assert state.store.rounds == [1, 10, 20]


def test_snapshot_single_round():
    cfg = make_config(clients=3, rounds=1, samples_per_class=30)
    _, state = run_from_config(cfg)
    assert state.store.rounds == [1]


def test_training_deterministic_rerun():
    cfg = make_config(clients=4, rounds=6, snapshot_every=2)
    _, a = run_from_config(cfg)
    _, b = run_from_config(cfg)
    assert a.store.rounds == b.store.rounds
    for row in range(len(a.store.rounds)):
        assert np.array_equal(a.store.globals[row], b.store.globals[row])
        for k in range(4):
            assert np.array_equal(a.store.locals[row][k], b.store.locals[row][k])


def test_lockstep_training_matches_sequential_oracle(monkeypatch):
    # coalition members (compensated, some rounds with recycling) and plain
    # clients alike: lock-step training reproduces client-by-client training
    cfg = make_config(
        clients=5,
        rounds=4,
        snapshot_every=2,
        extra="defense.kind = coalition\ndefense.coalition = 0,1\ndefense.t0 = 2\n",
    )
    _, lockstep = run_from_config(cfg)
    monkeypatch.setattr(models, "prepare_lockstep", recorded_lockstep_inputs)
    monkeypatch.setattr(models, "sgd_lockstep", sequential_sgd_lockstep)
    _, oracle = run_from_config(cfg)
    assert sum(tele.n_recycled for tele in oracle.telemetry) > 0
    assert lockstep.store.rounds == oracle.store.rounds
    for row in range(len(oracle.store.rounds)):
        for k in range(5):
            assert np.array_equal(lockstep.store.locals[row][k], oracle.store.locals[row][k])
    assert np.array_equal(lockstep.global_params, oracle.global_params)


@pytest.mark.parametrize("kind", ["none", "coalition", "grad_noise"])
def test_every_round_trains_in_one_lockstep_call(kind, monkeypatch):
    extra = "" if kind == "none" else f"defense.kind = {kind}\ndefense.coalition = 0,1\n"
    cfg = make_config(clients=5, rounds=4, extra=extra + "defense.t0 = 2\n")
    calls = []
    lockstep = models.sgd_lockstep

    def counting(*args, **kwargs):
        calls.append(len(args[2].sizes))
        return lockstep(*args, **kwargs)

    monkeypatch.setattr(models, "sgd_lockstep", counting)
    _, state = run_from_config(cfg)
    assert calls == [5] * 4
    if kind == "coalition":
        assert sum(tele.n_recycled for tele in state.telemetry) > 0


@pytest.mark.parametrize("kind, prepared", [("none", 1), ("grad_noise", 1), ("coalition", 4)])
def test_rounds_without_plans_prepare_their_lockstep_inputs_once(kind, prepared, monkeypatch):
    # coalition plans change the members' rows every round; nothing else does
    extra = "" if kind == "none" else f"defense.kind = {kind}\ndefense.coalition = 0,1\n"
    cfg = make_config(clients=5, rounds=4, extra=extra + "defense.t0 = 2\n")
    calls = []
    prepare = models.prepare_lockstep

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return prepare(*args, **kwargs)

    monkeypatch.setattr(models, "prepare_lockstep", counting)
    run_from_config(cfg)
    assert calls == [5] * prepared


@pytest.mark.parametrize("kind, laid_out", [("none", 1), ("grad_noise", 1), ("coalition", 4)])
def test_rounds_without_plans_lay_out_their_lockstep_views_once(kind, laid_out, monkeypatch):
    # the run's workspace keeps the views for the kept inputs; a round with
    # plans prepares inputs of its own, and so lays out views of its own
    extra = "" if kind == "none" else f"defense.kind = {kind}\ndefense.coalition = 0,1\n"
    cfg = make_config(clients=5, rounds=4, extra=extra + "defense.t0 = 2\n")
    calls = []
    lay_out = models._lockstep_views
    monkeypatch.setattr(models, "_lockstep_views", lambda *args: calls.append(1) or lay_out(*args))
    run_from_config(cfg)
    assert len(calls) == laid_out


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_kept_lockstep_inputs_give_the_uploads_of_inputs_rebuilt_every_round(hidden):
    cfg = make_config(
        clients=5,
        rounds=4,
        hidden=hidden,
        snapshot_every=1,
        extra="defense.kind = grad_noise\ndefense.coalition = 0,1\n",
    )
    prep = ex.prepare_data(cfg)

    def run(rebuild):
        fl = ex.build_fl_config(cfg)
        state = fed.init_training(fl, prep.spec, prep.clients, prep.test.X, prep.test.y)
        for t in range(1, 5):
            if rebuild and state.buffers is not None:
                state.buffers.plain_lockstep = None
            fed.run_round(state, t)
        return state

    kept, rebuilt = run(False), run(True)
    assert kept.buffers.plain_lockstep is not None
    for a, b in zip(kept.store.locals, rebuilt.store.locals, strict=True):
        assert np.array_equal(_bits(a), _bits(b))
    assert np.array_equal(_bits(kept.global_params), _bits(rebuilt.global_params))


def test_member_with_nothing_to_train_uploads_the_broadcast():
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    rng = np.random.default_rng(5)
    clients = _random_clients(rng, [20, 24, 30], spec.input_dim, spec.num_classes)
    # recycling from round 1 on, but capped at zero rows; no perturbation
    cfg, defense = library_configs(
        num_clients=3, rounds=2, lr=0.1, batch_size=8, defense="coalition", coalition=(0, 1),
        num_classes=3, m_max=3, m_min=1, t0=1, intervals=2, r_l=0.0, sigma=0.0,
    )
    test_X, test_y = rng.normal(size=(6, 4)), np.zeros(6, dtype=np.int64)
    state = fed.init_training(cfg, spec, clients, test_X, test_y, defense)
    state.schedule.subsets[0][0] = frozenset()  # member 0 is assigned no class in round 1
    start = state.global_params.copy()
    fed.run_round(state, 1)
    uploads = state.store.locals[0]
    assert np.array_equal(uploads[0], start)
    assert not np.array_equal(uploads[1], start)
    tele = state.telemetry[0]
    assert (tele.client_id, tele.n_assigned, tele.n_recycled) == (0, 0, 0)
    assert tele.arm >= 0 and tele.raw_reward == tele.norm_reward == 0.0
    assert state.bandits[0].rewards == [] and len(state.bandits[1].rewards) == 1
    assert np.array_equal(state.bandits[0].weights, np.ones(2))


# a coalition of clients 0 and 1 of `_three_clients`, recycling from round 2
COALITION = dict(
    num_clients=3, rounds=3, defense="coalition", coalition=(0, 1), num_classes=3, t0=2,
    intervals=2,
)


def _train(cfg, spec, clients, test_X, test_y, defense):
    """`init_training` and every `run_round` on hand-built clients."""
    state = fed.init_training(cfg, spec, clients, test_X, test_y, defense)
    for t in range(1, state.config.rounds + 1):
        fed.run_round(state, t)
    return state


def _three_clients(num_classes=3):
    """(spec, clients, test_X, test_y): clients of 18, 22 and 28 training rows
    on 4 features, and a model of 4 * 3 + 3 = 15 parameters at 3 classes."""
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=num_classes)
    rng = np.random.default_rng(5)
    clients = _random_clients(rng, [20, 24, 30], spec.input_dim, num_classes)
    return spec, clients, rng.normal(size=(6, 4)), np.zeros(6, dtype=np.int64)


def test_a_defense_value_that_the_config_refuses_fails_before_any_client_trains(monkeypatch):
    spec, clients, test_X, test_y = _three_clients()
    cfg, defense = library_configs(**COALITION)
    trained = mock.Mock(side_effect=AssertionError("a client trained"))
    monkeypatch.setattr(models, "sgd_lockstep", trained)
    with pytest.raises(ConfigError, match=r"^config field 'defense.r_p': must be in \(0, 1\]$"):
        library_configs(**COALITION, r_p=0.0)
    with pytest.raises(ConfigError, match=r"^config field 'defense.t0': t0=99 exceeds fl.T=3$"):
        _train(replace(cfg, t0=99), spec, clients, test_X, test_y, defense)
    # a defense config is checked under any defense, so it cannot be dropped unread
    with pytest.raises(ConfigError, match=r"^config field 'defense.kind': 'coalition' in the def"):
        _train(replace(cfg, defense="grad_noise"), spec, clients, test_X, test_y, defense)
    assert not trained.called
    cfg, defense = library_configs(**{**COALITION, "t0": 3})
    with pytest.raises(AssertionError, match="a client trained"):  # t0 = T passes
        _train(cfg, spec, clients, test_X, test_y, defense)


def test_the_run_keeps_the_defense_config_that_its_config_resolves_to():
    spec, clients, test_X, test_y = _three_clients()
    cfg, defense = library_configs(**COALITION)
    # the coalition ids sorted, the class bounds resolved: one config for the run
    unsorted = replace(cfg, coalition=(1, 0))
    state = fed.init_training(unsorted, spec, clients, test_X, test_y, defense)
    assert state.config == defense and cfg.m_max is None


@pytest.mark.parametrize(
    "named, changed, classes, pattern",
    [
        # a defense config changed after the builders, which validated it
        ({}, {"r_p": 0.0}, 3, r"'defense.r_p': 0.0 in the defense config differs from 0.2"),
        ({}, {"m_max": 2}, 3, r"'defense.m_max': 2 in the defense config differs from 3"),
        # the class bounds are resolved for the data's classes, not data.num_classes
        ({}, {}, 4, r"'defense.m_max': 3 in the defense config differs from 4"),
        ({"intervals": 500}, {}, 3, r"'defense.intervals': 500 intervals exceed the 18 "),
        ({"r_p": 0.05}, {}, 3, r"'defense.r_p': 0.05 of the model's 15 parameters is an empty"),
    ],
    ids=["r_p_replaced", "m_max_replaced", "other_class_count", "intervals", "empty_tail"],
)
def test_what_the_rounds_cannot_run_is_refused_by_key_before_any_client_trains(
    monkeypatch, named, changed, classes, pattern
):
    spec, clients, test_X, test_y = _three_clients(classes)
    cfg, defense = library_configs(**{**COALITION, **named})
    monkeypatch.setattr(models, "sgd_lockstep", mock.Mock(side_effect=AssertionError("trained")))
    with pytest.raises(ConfigError, match=r"^config field " + pattern):
        _train(cfg, spec, clients, test_X, test_y, replace(defense, **changed))


@pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
def test_fl_config_rejects_a_non_finite_or_negative_lr(lr):
    with pytest.raises(ConfigError, match=r"^config field 'fl.lr': must be a finite number >= 0"):
        library_configs(lr=lr)


def test_fl_config_refuses_a_repeated_coalition_id_and_sorts_the_rest():
    with pytest.raises(ConfigError, match=r"^config field 'defense.coalition': client id 2 is rep"):
        library_configs(num_clients=4, rounds=2, defense="grad_noise", coalition=(3, 2, 2))
    cfg, _ = library_configs(num_clients=4, rounds=2, defense="grad_noise", coalition=(3, 0))
    assert cfg.coalition == (0, 3)


def test_diverging_training_names_round_and_clients():
    cfg = make_config(clients=4, rounds=40, lr=400.0)
    with pytest.raises(FloatingPointError, match=r"round \d+: non-finite loss .* client\(s\) \[\d"):
        run_from_config(cfg)


def test_training_reaches_high_accuracy_on_separable_data():
    cfg = make_config(clients=4, rounds=30, spread=0.5, lr=0.3, snapshot_every=10)
    _, state = run_from_config(cfg)
    assert state.reports[-1].test_acc >= 0.9
    assert len(state.reports) == 30
    assert all(0.0 <= r.test_acc <= 1.0 for r in state.reports)


def test_coalition_perturbation_cancels_in_global_trajectory():
    base = (
        "defense.kind = coalition\ndefense.coalition = 0,1\n"
        "defense.t0 = 3\ndefense.sigma = {sigma}\n"
    )
    cfg_on = make_config(clients=4, rounds=6, snapshot_every=1, extra=base.format(sigma=0.1))
    cfg_off = make_config(clients=4, rounds=6, snapshot_every=1, extra=base.format(sigma=0))
    _, on = run_from_config(cfg_on)
    _, off = run_from_config(cfg_off)
    assert on.store.rounds == off.store.rounds
    for g_on, g_off in zip(on.store.globals, off.store.globals):
        assert np.max(np.abs(g_on - g_off)) <= 1e-8
    # while coalition locals visibly differ (the noise is really there)
    assert np.max(np.abs(on.store.locals[-1][0] - off.store.locals[-1][0])) > 1e-4


def _random_clients(rng, sizes, input_dim, num_classes):
    """Clients of the given sizes on Gaussian features; 2 validation rows each."""
    clients = []
    for k, n in enumerate(sizes):
        x = rng.normal(size=(n, input_dim))
        y = rng.integers(0, num_classes, size=n)
        clients.append(
            ClientDataset(
                client_id=k,
                train_X=x[2:],
                train_y=y[2:],
                val_X=x[:2],
                val_y=y[:2],
                train_indices=np.arange(2, n),
                val_indices=np.arange(2),
            )
        )
    return clients


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(6, 45), min_size=2, max_size=6),
    sigma=st.floats(1e-3, 3.0),
    hidden=st.sampled_from([0, 5]),
    seed=st.integers(0, 2**16),
)
def test_perturbation_cancels_for_random_coalitions_sizes_and_sigma(
    data, sizes, sigma, hidden, seed
):
    k = len(sizes)
    coalition = data.draw(st.sets(st.integers(0, k - 1), min_size=2), label="coalition")
    num_classes = 3
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=num_classes)
    rng = np.random.default_rng(seed)
    clients = _random_clients(rng, sizes, spec.input_dim, num_classes)
    test_X, test_y = rng.normal(size=(10, spec.input_dim)), rng.integers(0, num_classes, 10)

    def run(noise_sigma):
        cfg, defense = library_configs(
            num_clients=k,
            rounds=3,
            lr=0.1,
            batch_size=8,
            snapshot_every=1,
            defense="coalition",
            coalition=tuple(coalition),
            seed=seed,
            num_classes=num_classes,
            m_max=num_classes,
            m_min=1,
            t0=2,
            intervals=2,
            sigma=noise_sigma,
        )
        return _train(cfg, spec, clients, test_X, test_y, defense)

    on, off = run(sigma), run(0.0)
    assert on.store.rounds == off.store.rounds == [1, 2, 3]
    trajectory_on = [*on.store.globals, on.global_params]
    trajectory_off = [*off.store.globals, off.global_params]
    for g_on, g_off in zip(trajectory_on, trajectory_off):
        assert np.max(np.abs(g_on - g_off)) <= 1e-12
    # the noise is really there: some member's upload differs
    assert np.max(np.abs(on.store.locals[-1] - off.store.locals[-1])) > 0


# training-set sizes 9, 14, 9, 20, 14, 9, 31: two repeated sizes and two unique ones
EVAL_SIZES = [11, 16, 11, 22, 16, 11, 33]


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_round_report_equals_per_client_evaluation(hidden):
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(21)
    clients = _random_clients(rng, EVAL_SIZES, spec.input_dim, spec.num_classes)
    test_X, test_y = rng.normal(size=(25, spec.input_dim)), rng.integers(0, 3, 25)
    cfg, _ = library_configs(num_clients=len(clients), rounds=3, lr=0.3, batch_size=4, seed=5)
    state = fed.init_training(cfg, spec, clients, test_X, test_y)
    for t in range(1, 4):
        fed.run_round(state, t)
        g = state.global_params
        loss_sum = 0.0
        for c in clients:  # one client at a time, in client order
            loss_sum += float(models.per_sample_losses(spec, g, c.train_X, c.train_y).sum())
        report = state.reports[-1]
        assert report.mean_train_loss == loss_sum / sum(len(c.train_y) for c in clients)
        assert report.test_acc == models.accuracy(spec, g, test_X, test_y)


@pytest.mark.parametrize("client", [0, 3], ids=["repeated_size", "unique_size"])
def test_non_finite_global_training_loss_names_the_round(client, monkeypatch):
    spec = ModelSpec(input_dim=4, hidden_dim=16, num_classes=3)
    rng = np.random.default_rng(22)
    clients = _random_clients(rng, EVAL_SIZES, spec.input_dim, spec.num_classes)
    clients[client].train_X[0, 0] = np.inf
    # local training leaves the broadcast as it is, so only the evaluation meets the inf
    monkeypatch.setattr(
        models,
        "sgd_lockstep",
        lambda spec, params, inputs, *rest: np.tile(params, (len(inputs.sizes), 1)),
    )
    cfg, _ = library_configs(num_clients=len(clients), rounds=2, seed=5)
    state = fed.init_training(cfg, spec, clients, rng.normal(size=(5, 4)), np.zeros(5, int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the non-finite loss is raised, not warned about
        with pytest.raises(FloatingPointError, match="round 1: the global model's training loss"):
            fed.run_round(state, 1)


def test_aggregation_weights_are_dataset_sizes():
    cfg = make_config(clients=3, rounds=1, samples_per_class=30)
    prep, state = run_from_config(cfg)
    sizes = np.array([c.num_samples for c in prep.clients], dtype=np.float64)
    weights = sizes / sizes.sum()
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert state.store.rounds == [1]
    manual = fed.aggregate_weighted([state.store.locals[0][k] for k in range(3)], sizes)
    assert np.allclose(manual, state.global_params, atol=1e-12)


def test_grad_baselines_only_touch_coalition_clients():
    extra = "defense.kind = grad_sparse\ndefense.coalition = 0\ndefense.keep_rate = 0.2\n"
    cfg_def = make_config(clients=3, rounds=1, samples_per_class=30, extra=extra)
    cfg_none = make_config(clients=3, rounds=1, samples_per_class=30)
    _, st_def = run_from_config(cfg_def)
    _, st_none = run_from_config(cfg_none)
    # client 0's upload is sparsified, others untouched
    delta0 = st_def.store.locals[0][0] - st_def.store.globals[0]
    assert np.mean(delta0 == 0.0) >= 0.75
    for k in (1, 2):
        assert np.array_equal(st_def.store.locals[0][k], st_none.store.locals[0][k])


STAMP = "0123456789abcdef" * 4  # a well-formed config SHA-256


def test_store_save_load_round_trip(tmp_path):
    cfg = make_config(clients=3, rounds=5, snapshot_every=2, samples_per_class=30)
    prep, state = run_from_config(cfg)
    path = tmp_path / "snaps.npz"
    state.store.save(str(path), STAMP, 0)
    assert fed.read_snapshot_stamp(str(path)) == (STAMP, 0)
    back = fed.SnapshotStore.load(str(path))
    assert back.rounds == state.store.rounds
    assert back.spec == state.store.spec
    assert np.array_equal(back.client_sizes, state.store.client_sizes)
    for row in range(len(back.rounds)):
        assert np.array_equal(back.globals[row], state.store.globals[row])
        for k in range(3):
            assert np.array_equal(back.locals[row][k], state.store.locals[row][k])
    assert back.train.X.tobytes() == prep.train.X.tobytes()
    assert np.array_equal(back.train.y, prep.train.y)
    assert back.train.num_classes == prep.train.num_classes
    parts = list(zip(back.plan.client_indices, prep.plan.client_indices))
    for loaded, prepared in parts + [(back.plan.ofl_indices, prep.plan.ofl_indices)]:
        assert loaded.dtype == prepared.dtype and np.array_equal(loaded, prepared)


def test_a_damaged_snapshot_file_is_closed_when_refused(tmp_path):
    # numpy's zip reader takes the handle before it parses the file
    path = tmp_path / "snaps.npz"
    path.write_bytes(b"PK\x03\x04garbage")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="cannot be read"):
            fed.read_snapshot_stamp(str(path))
        gc.collect()
    assert [w.message for w in caught] == []
    with pytest.raises(OSError):
        fed.read_snapshot_stamp(str(tmp_path / "missing.npz"))


def test_a_store_without_rows_is_not_saved(tmp_path):
    spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
    store = fed.SnapshotStore(spec, np.array([2, 2]))
    store.record(1, np.zeros(spec.param_count), np.zeros((2, spec.param_count)))
    with pytest.raises(ValueError, match="no training rows .'rows', 'labels', 'owners'."):
        store.save(str(tmp_path / "snaps.npz"), STAMP, 0)
    assert not (tmp_path / "snaps.npz").exists()


def test_record_rejects_an_upload_matrix_of_the_wrong_shape():
    cfg = make_config(clients=3, rounds=2, samples_per_class=30)
    _, state = run_from_config(cfg)
    store = state.store
    p = store.spec.param_count
    with pytest.raises(ValueError, match=r"\(3, %d\)" % p):
        store.record(2, np.zeros(p), np.zeros((2, p)))
    assert store.rounds == [1] and len(store.locals) == 1


# the owners of 25 training rows: 3 OFL rows (-1) and 4, 5, 6, 7 of clients 0-3
OWNERS = np.random.default_rng(0).permutation(np.repeat(np.arange(-1, 4), [3, 4, 5, 6, 7]))


def _snapshot_fields():
    """A consistent set of snapshot-file arrays: logreg 3 -> 2, R=3, K=4,
    25 training rows."""
    spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
    p = spec.param_count
    return {
        "format": np.int64(3),
        "config_sha256": np.str_(STAMP),
        "seed": np.int64(7),
        "rounds": np.array([1, 5, 10], dtype=np.int64),
        "client_sizes": np.array([4, 5, 6, 7], dtype=np.int64),
        "spec": np.array([3, 0, 2], dtype=np.int64),
        "globals": np.zeros((3, p)),
        "locals": np.ones((3, 4, p)),
        "rows": np.arange(75.0).reshape(25, 3),
        "labels": np.arange(25, dtype=np.int64) % 2,
        "owners": OWNERS,
    }


def test_store_load_accepts_the_unforged_fields(tmp_path):
    path = tmp_path / "snaps.npz"
    np.savez_compressed(path, **_snapshot_fields())
    store = fed.SnapshotStore.load(str(path))
    assert store.rounds == [1, 5, 10] and store.num_clients == 4
    assert np.array_equal(store.locals[1][3], np.ones(8))
    assert np.array_equal(store.train.X[24], [72.0, 73.0, 74.0]) and store.train.y[24] == 0
    for k, indices in enumerate(store.plan.client_indices):
        assert np.array_equal(indices, np.flatnonzero(OWNERS == k))
    assert np.array_equal(store.plan.ofl_indices, np.flatnonzero(OWNERS == -1))


@pytest.mark.parametrize(
    "field, forged",
    [
        ("spec", np.array([3, 0], dtype=np.int64)),
        ("spec", np.array([3, 0, 1], dtype=np.int64)),
        ("spec", np.array([3.0, 0.0, 2.0])),
        ("globals", np.zeros((3, 9))),
        ("globals", np.zeros(24)),
        ("locals", np.ones((2, 4, 8))),
        ("locals", np.ones((3, 4, 7))),
        ("locals", np.ones((3, 32))),
        ("client_sizes", np.array([4, 5, 6], dtype=np.int64)),
        ("client_sizes", np.array([4.0, 5.0, 6.0, 7.0])),
        ("rounds", np.array([1, 5], dtype=np.int64)),
        ("rounds", np.array([1, 10, 5], dtype=np.int64)),
        ("rounds", np.array([1, 5, 5], dtype=np.int64)),
        ("rounds", np.array([1.0, 5.0, 10.0])),
        ("format", np.int64(1)),
        ("format", np.int64(2)),
        ("format", np.float64(2.0)),
        ("format", np.array([2], dtype=np.int64)),
        ("config_sha256", np.str_(STAMP[:-1])),
        ("config_sha256", np.str_(STAMP.upper())),
        ("config_sha256", np.bytes_(STAMP.encode())),
        ("config_sha256", np.array([STAMP])),
        ("seed", np.float64(7.0)),
        ("seed", np.array([7], dtype=np.int64)),
        ("rows", np.zeros((25, 4))),
        ("rows", np.zeros(75)),
        ("rows", np.zeros((25, 3), dtype=np.int64)),
        ("rows", np.where(np.arange(75).reshape(25, 3) == 40, np.inf, 0.0)),
        ("labels", np.arange(25, dtype=np.int64) % 3),
        ("labels", np.zeros(24, dtype=np.int64)),
        ("labels", np.zeros(25)),
        ("owners", np.where(OWNERS == 3, 4, OWNERS)),
        ("owners", np.where(OWNERS == 3, 2, OWNERS)),
        ("owners", np.where(OWNERS == 3, -2, OWNERS)),
        ("owners", OWNERS[:24]),
        ("owners", OWNERS.astype(np.float64)),
    ],
)
def test_store_load_names_the_bad_field(tmp_path, field, forged):
    path = tmp_path / "forged.npz"
    np.savez_compressed(path, **dict(_snapshot_fields(), **{field: forged}))
    with pytest.raises(ValueError, match=f"'{field}'"):
        fed.SnapshotStore.load(str(path))


def test_store_load_names_a_missing_field(tmp_path):
    fields = _snapshot_fields()
    del fields["locals"]
    path = tmp_path / "partial.npz"
    np.savez_compressed(path, **fields)
    with pytest.raises(ValueError, match="locals"):
        fed.SnapshotStore.load(str(path))


def test_store_load_reads_each_member_once(tmp_path, monkeypatch):
    cfg = make_config(clients=3, rounds=5, snapshot_every=2, samples_per_class=30)
    _, state = run_from_config(cfg)
    path = tmp_path / "snaps.npz"
    state.store.save(str(path), STAMP, 0)
    reads = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def counting_getitem(npz, key):
        reads.append(key)
        return getitem(npz, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting_getitem)
    fed.SnapshotStore.load(str(path))
    assert sorted(reads) == sorted(fed.SNAPSHOT_FIELDS)
    with np.load(path) as blob:
        assert sorted(blob.files) == sorted(fed.SNAPSHOT_FIELDS)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _coalition_state(
    spec, rng, sizes, val_sizes, t0, sigma, snapshot_every=10, coalition=(0, 1, 3)
):
    """A coalition run of 4 rounds on Gaussian clients with the given
    training and validation sizes, recycling from round t0 on."""
    clients = []
    for k, (n, v) in enumerate(zip(sizes, val_sizes)):
        x = rng.normal(size=(n + v, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=n + v)
        clients.append(
            ClientDataset(k, x[v:], y[v:], x[:v], y[:v], np.arange(v, n + v), np.arange(v))
        )
    cfg, defense = library_configs(
        num_clients=len(sizes), rounds=4, lr=0.3, batch_size=8, snapshot_every=snapshot_every,
        defense="coalition", coalition=tuple(coalition), seed=3,
        num_classes=spec.num_classes, m_max=3, m_min=1, t0=t0, intervals=3, sigma=sigma,
    )
    test_X, test_y = rng.normal(size=(6, spec.input_dim)), np.zeros(6, dtype=np.int64)
    return fed.init_training(cfg, spec, clients, test_X, test_y, defense)


# few distinct sizes, so that members share a size with others or hold one of their own
@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.sampled_from([12, 20, 27]), min_size=3, max_size=6),
    hidden=st.sampled_from([0, 5]),
    t0=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_plans_take_the_training_losses_of_the_broadcast_bit_for_bit(data, sizes, hidden, t0, seed):
    # from round 2 on the losses come from the previous round's evaluation,
    # in round 1 (t0 = 1) from one evaluation of the initial model
    members = data.draw(st.lists(st.integers(0, len(sizes) - 1), min_size=2, unique=True))
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(seed)
    state = _coalition_state(spec, rng, sizes, [2] * len(sizes), t0, 0.1, coalition=members)
    seen = []
    plan = fed.plan_local_update

    def recording(losses, assigned, round_t, defense, bandit, bandit_rng):
        if losses is not None:
            (k,) = [k for k, b in state.bandits.items() if b is bandit]
            seen.append((round_t, k, losses.copy(), state.global_params.copy()))
        return plan(losses, assigned, round_t, defense, bandit, bandit_rng)

    with mock.patch.object(fed, "plan_local_update", recording):
        for t in range(1, 5):
            fed.run_round(state, t)
    assert [(t, k) for t, k, *_ in seen] == [(t, k) for t in range(t0, 5) for k in sorted(members)]
    for _, k, losses, broadcast in seen:
        client = state.clients[k]
        alone = models.per_sample_losses(spec, broadcast, client.train_X, client.train_y)
        assert np.array_equal(_bits(losses), _bits(alone))


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_rewards_take_each_members_validation_losses_alone_bit_for_bit(hidden):
    # validation sizes 3, 5 and 3 for the members, and none for a plain client
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(37)
    state = _coalition_state(
        spec, rng, [20, 24, 26, 33, 20], [3, 5, 0, 3, 4], 1, sigma=0.0, snapshot_every=1
    )
    for t in range(1, 5):
        fed.run_round(state, t)
    assert len(state.telemetry) == 12
    for tele in state.telemetry:
        client, row = state.clients[tele.client_id], tele.round_t - 1
        val = (client.val_X, client.val_y)
        before = float(models.per_sample_losses(spec, state.store.globals[row], *val).mean())
        local = state.store.locals[row][tele.client_id]
        after = float(models.per_sample_losses(spec, local, *val).mean())
        assert tele.arm >= 0 and _bits(tele.raw_reward) == _bits(before - after)


@pytest.mark.parametrize("hidden", [0, 16], ids=["logistic", "mlp"])
def test_rewards_equal_two_validation_passes_over_the_rewarded_members(hidden):
    # the broadcast's validation losses come from the evaluation that ended
    # the previous round (in round 1, of the initial model), the uploads'
    # from one pass of the run's validation stack: each pair equals that of a
    # pass of the broadcast and a pass of the uploads over the rewarded
    # members' validation sets
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=3)
    rng = np.random.default_rng(47)
    state = _coalition_state(
        spec, rng, [20, 24, 26, 33, 20], [3, 5, 0, 3, 4], 1, sigma=0.1,
        coalition=(0, 1, 2, 3),
    )
    bufs = fed._buffers(state)
    assert bufs.val_members == [0, 1, 3]  # the members with validation rows
    passes, pairs = [], []
    validation, reward = bufs.validation.losses, fed.reward_local_update

    def passing(params):
        if np.ndim(params) == 2:  # the uploads' pass, under the round's broadcast
            passes.append((state.global_params.copy(), params.copy()))
        return validation(params)

    def rewarding(client_id, plan, val, round_t, bandit):
        if val is not None:
            pairs.append(val)
        return reward(client_id, plan, val, round_t, bandit)

    with mock.patch.object(bufs.validation, "losses", passing):
        with mock.patch.object(fed, "reward_local_update", rewarding):
            for t in range(1, 5):
                fed.run_round(state, t)
    members = [state.clients[k] for k in bufs.val_members]
    xs, ys = [c.val_X for c in members], [c.val_y for c in members]
    batches = models.StackedBatches(spec, xs, ys)
    two_pass = []
    for broadcast, uploads in passes:
        before, after = batches.losses(broadcast), batches.losses(uploads)
        two_pass += [(float(b.mean()), float(a.mean())) for b, a in zip(before, after)]
    assert len(pairs) == 4 * 3  # every round, every member with validation rows
    assert np.array_equal(_bits(pairs), _bits(two_pass))


def test_bandit_generators_are_made_only_from_t0_on(tmp_path):
    # a plan before t0 draws nothing, so no stream is derived for it: members
    # x (T - t0 + 1) "bandit" streams, and the plans and compensation.csv of
    # runs that made one every round
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    runs = []
    for every_round in (False, True):
        rng = np.random.default_rng(43)
        state = _coalition_state(spec, rng, [20, 24, 26, 33, 20], [3] * 5, 3, sigma=0.1)
        made, plans = [], []
        derive, plan = fedrng.derive_seed, fed.plan_local_update

        def counting(seed, *labels):
            made.append(labels)
            return derive(seed, *labels)

        def recording(losses, assigned, round_t, defense, bandit, bandit_rng):
            if every_round and bandit_rng is None:  # the generator such a round made
                (k,) = [k for k, b in state.bandits.items() if b is bandit]
                bandit_rng = fedrng.stream(state.config.seed, "bandit", k, round_t)
            plans.append(plan(losses, assigned, round_t, defense, bandit, bandit_rng))
            return plans[-1]

        with mock.patch.object(fedrng, "derive_seed", counting):
            with mock.patch.object(fed, "plan_local_update", recording):
                for t in range(1, 5):
                    fed.run_round(state, t)
        path = tmp_path / f"compensation_{every_round}.csv"
        ex.write_compensation_csv(str(path), state.telemetry)
        runs.append((made, plans, path.read_bytes(), state.global_params))
    (made, plans, csv, final), (_, old_plans, old_csv, old_final) = runs
    members, t0, rounds = (0, 1, 3), 3, 4
    bandit = [labels for labels in made if labels[0] == "bandit"]
    assert len(bandit) == len(members) * (rounds - t0 + 1)
    assert sorted(bandit) == [("bandit", k, t) for k in members for t in range(t0, rounds + 1)]
    assert sum(n for *_, n in plans) > 0  # some rows were recycled
    assert len(plans) == len(old_plans) == len(members) * rounds
    for (rows, arm, n), (old_rows, old_arm, old_n) in zip(plans, old_plans):
        assert np.array_equal(rows, old_rows) and (arm, n) == (old_arm, old_n)
    assert csv == old_csv
    assert np.array_equal(_bits(final), _bits(old_final))


def test_non_finite_validation_loss_at_the_broadcast_names_the_round_and_member():
    spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
    state = _coalition_state(spec, np.random.default_rng(41), [20] * 5, [2] * 5, 1, sigma=0.1)
    state.clients[1].val_X[0, 0] = np.inf  # every model's loss on this row is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the non-finite loss is raised, not warned about
        with pytest.raises(FloatingPointError, match=r"round 1: non-finite .* client\(s\) \[1\]"):
            fed.run_round(state, 1)
