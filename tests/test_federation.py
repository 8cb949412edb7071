"""Tests for aggregation, perturbation baselines, and the round loop."""

import numpy as np
import pytest

from fedpriv import federation as fed
from fedpriv import models
from fedpriv.data import ClientDataset
from fedpriv.federation import FlConfig
from fedpriv.models import ModelSpec
from harness import make_config, run_from_config
from oracles import sequential_sgd_clients


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
        class_hist=np.bincount(y, minlength=2),
    )
    return spec, client, x, y


def test_run_round_single_client_global_equals_local():
    spec, client, x, y = _single_client_setup()
    cfg = FlConfig(num_clients=1, rounds=1, lr=0.1, local_epochs=1, batch_size=4, seed=3)
    state = fed.init_training(cfg, spec, [client], x, y)
    start = state.global_params.copy()
    fed.run_round(state, 1)
    from fedpriv.rng import stream

    expected = models.sgd_epochs(spec, start, x, y, 0.1, 1, 4, stream(3, "train", 0, 1))
    assert np.allclose(state.global_params, expected, atol=1e-12)


def test_run_round_identical_locals_equal_global():
    # zero learning rate: every local equals the broadcast global
    cfg = make_config(clients=4, rounds=1, lr=0.0)
    prep, state = run_from_config(cfg)
    assert np.allclose(state.global_params, state.store.global_at(1), atol=1e-12)


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
    for t in a.store.rounds:
        assert np.array_equal(a.store.global_at(t), b.store.global_at(t))
        for k in range(4):
            assert np.array_equal(a.store.local_at(t, k), b.store.local_at(t, k))


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
    monkeypatch.setattr(models, "sgd_clients", sequential_sgd_clients)
    _, oracle = run_from_config(cfg)
    assert sum(tele.n_recycled for tele in oracle.telemetry) > 0
    for t in oracle.store.rounds:
        for k in range(5):
            assert np.array_equal(lockstep.store.local_at(t, k), oracle.store.local_at(t, k))
    assert np.array_equal(lockstep.global_params, oracle.global_params)


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
    for t in on.store.rounds:
        assert np.max(np.abs(on.store.global_at(t) - off.store.global_at(t))) <= 1e-8
    # while coalition locals visibly differ (the noise is really there)
    last = on.store.rounds[-1]
    assert np.max(np.abs(on.store.local_at(last, 0) - off.store.local_at(last, 0))) > 1e-4


def test_aggregation_weights_are_dataset_sizes():
    cfg = make_config(clients=3, rounds=1, samples_per_class=30)
    prep, state = run_from_config(cfg)
    sizes = np.array([c.num_samples for c in prep.clients], dtype=np.float64)
    weights = sizes / sizes.sum()
    assert abs(weights.sum() - 1.0) <= 1e-12
    manual = fed.aggregate_weighted(
        [state.store.local_at(1, k) for k in range(3)], sizes
    )
    assert np.allclose(manual, state.global_params, atol=1e-12)


def test_grad_baselines_only_touch_coalition_clients():
    extra = "defense.kind = grad_sparse\ndefense.coalition = 0\ndefense.keep_rate = 0.2\n"
    cfg_def = make_config(clients=3, rounds=1, samples_per_class=30, extra=extra)
    cfg_none = make_config(clients=3, rounds=1, samples_per_class=30)
    _, st_def = run_from_config(cfg_def)
    _, st_none = run_from_config(cfg_none)
    # client 0's upload is sparsified, others untouched
    delta0 = st_def.store.local_at(1, 0) - st_def.store.global_at(1)
    assert np.mean(delta0 == 0.0) >= 0.75
    for k in (1, 2):
        assert np.array_equal(st_def.store.local_at(1, k), st_none.store.local_at(1, k))


def test_store_save_load_round_trip(tmp_path):
    cfg = make_config(clients=3, rounds=5, snapshot_every=2, samples_per_class=30)
    _, state = run_from_config(cfg)
    path = tmp_path / "snaps.npz"
    state.store.save(str(path))
    back = fed.SnapshotStore.load(str(path))
    assert back.rounds == state.store.rounds
    assert back.spec == state.store.spec
    assert np.array_equal(back.client_sizes, state.store.client_sizes)
    for t in back.rounds:
        assert np.array_equal(back.global_at(t), state.store.global_at(t))
        for k in range(3):
            assert np.array_equal(back.local_at(t, k), state.store.local_at(t, k))


def test_local_snapshot_missing_client_errors():
    cfg = make_config(clients=3, rounds=2, samples_per_class=30)
    _, state = run_from_config(cfg)
    with pytest.raises(KeyError):
        state.store.local_at(1, 7)


def _snapshot_fields():
    """A consistent set of snapshot-file arrays: logreg 3 -> 2, R=3, K=4."""
    spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
    p = spec.param_count
    return {
        "rounds": np.array([1, 5, 10], dtype=np.int64),
        "client_sizes": np.array([4, 5, 6, 7], dtype=np.int64),
        "spec": np.array([3, 0, 2], dtype=np.int64),
        "globals": np.zeros((3, p)),
        "locals": np.ones((3, 4, p)),
    }


def test_store_load_accepts_the_unforged_fields(tmp_path):
    path = tmp_path / "snaps.npz"
    np.savez_compressed(path, **_snapshot_fields())
    store = fed.SnapshotStore.load(str(path))
    assert store.rounds == [1, 5, 10] and store.num_clients == 4
    assert np.array_equal(store.local_at(5, 3), np.ones(8))


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
    state.store.save(str(path))
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
