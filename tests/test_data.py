"""Tests for dataset generation, partitioning, and evaluation pools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import data, models
from fedpriv.models import ModelSpec
from harness import save_csv
from oracles import loop_generate_synthetic, loop_partition_dirichlet


def test_generate_synthetic_deterministic():
    a = data.generate_synthetic(3, 10, 4, 0.5, seed=11)
    b = data.generate_synthetic(3, 10, 4, 0.5, seed=11)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_generate_synthetic_zero_spread_collapses_to_means():
    ds = data.generate_synthetic(3, 5, 4, 0.0, seed=2)
    for c in range(3):
        block = ds.X[ds.y == c]
        assert np.all(block == block[0])


def test_two_separated_classes_are_learnable():
    ds = data.generate_synthetic(2, 40, 6, 0.1, seed=5, mean_scale=4.0)
    mu0 = ds.X[ds.y == 0].mean(axis=0)
    mu1 = ds.X[ds.y == 1].mean(axis=0)
    assert np.linalg.norm(mu0 - mu1) >= 5.0  # precondition of the check
    spec = ModelSpec(input_dim=6, hidden_dim=0, num_classes=2)
    params = models.init_params(spec, np.random.default_rng(0))
    params = models.sgd_epochs(spec, params, ds.X, ds.y, 0.2, 50, 16, np.random.default_rng(1))
    assert models.accuracy(spec, params, ds.X, ds.y) >= 0.99


# (classes, samples a class, features, clients, beta, OFL fraction): the
# benchmark's dirichlet_logreg partition; classes of 2 rows with half of
# all rows carved out as OFL, so in some seeds a class keeps none; and 6
# clients over 30 rows at beta 0.3, which empties a client in some draws
SYNTHETIC_PLANS = {
    "workload": (10, 500, 20, 20, 0.5, 0.1),
    "empty_class": (8, 2, 3, 3, 0.5, 0.5),
    "redraw": (3, 10, 2, 6, 0.3, 0.0),
}


@pytest.mark.parametrize("shape", SYNTHETIC_PLANS)
def test_synthetic_rows_and_dirichlet_plans_keep_the_bits_of_the_class_loops(shape):
    classes, per_class, dim, clients, beta, ofl = SYNTHETIC_PLANS[shape]
    empty_classes = redraws = 0
    for seed in range(50):
        spread, scale = 0.5 + seed % 7, 1.0 + seed % 3
        ds = data.generate_synthetic(classes, per_class, dim, spread, seed, mean_scale=scale)
        x, y = loop_generate_synthetic(classes, per_class, dim, spread, seed, scale)
        assert ds.X.tobytes() == x.tobytes() and np.array_equal(ds.y, y), seed
        try:
            loop = loop_partition_dirichlet(y, classes, clients, beta, ofl, seed)
            shares, ofl_ids, attempt = loop
        except RuntimeError:
            with pytest.raises(RuntimeError):
                data.partition_dirichlet(ds, clients, beta, ofl, seed)
            continue
        plan = data.partition_dirichlet(ds, clients, beta, ofl, seed)
        assert len(plan.client_indices) == clients
        for got, want in zip(plan.client_indices, shares):
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
        assert np.array_equal(plan.ofl_indices, ofl_ids), seed
        kept = np.ones(len(y), dtype=bool)
        kept[ofl_ids] = False
        empty_classes += len(np.unique(y[kept])) < classes
        redraws += attempt > 0
    if shape == "empty_class":
        assert empty_classes > 0
    if shape == "redraw":
        assert redraws > 0


def test_partition_iid_even_split():
    ds = data.generate_synthetic(2, 50, 3, 1.0, seed=0)  # 100 samples
    plan = data.partition_iid(ds, 10, 0.0, seed=1)
    assert [len(c) for c in plan.client_indices] == [10] * 10
    assert len(plan.ofl_indices) == 0


def test_partition_iid_ofl_carve():
    ds = data.generate_synthetic(4, 250, 3, 1.0, seed=0)  # 1000 samples
    plan = data.partition_iid(ds, 9, 0.1, seed=1)
    assert len(plan.ofl_indices) == 100
    sizes = [len(c) for c in plan.client_indices]
    assert sum(sizes) == 900
    assert max(sizes) - min(sizes) <= 1


def test_partition_iid_exact_partition():
    ds = data.generate_synthetic(3, 41, 3, 1.0, seed=3)
    plan = data.partition_iid(ds, 7, 0.13, seed=4)
    pieces = [plan.ofl_indices] + plan.client_indices
    merged = np.concatenate(pieces)
    assert len(merged) == len(ds)
    assert len(np.unique(merged)) == len(ds)


def test_partition_iid_too_few_samples():
    ds = data.generate_synthetic(2, 2, 3, 1.0, seed=0)  # 4 samples
    with pytest.raises(ValueError):
        data.partition_iid(ds, 5, 0.0, seed=0)


def test_partition_dirichlet_reproducible_and_exact():
    ds = data.generate_synthetic(5, 60, 3, 1.0, seed=9)
    a = data.partition_dirichlet(ds, 6, 0.5, 0.1, seed=10)
    b = data.partition_dirichlet(ds, 6, 0.5, 0.1, seed=10)
    for ca, cb in zip(a.client_indices, b.client_indices):
        assert np.array_equal(ca, cb)
    merged = np.concatenate([a.ofl_indices] + a.client_indices)
    assert len(np.unique(merged)) == len(merged) == len(ds)


def test_partition_dirichlet_large_beta_is_near_uniform():
    # statistical oracle: with beta -> inf, each client's class histogram
    # matches the global one within 20% relative error
    for seed in (0, 1, 2):
        ds = data.generate_synthetic(4, 250, 3, 1.0, seed=seed)
        plan = data.partition_dirichlet(ds, 5, 1e6, 0.0, seed=seed)
        for idx in plan.client_indices:
            hist = np.bincount(ds.y[idx], minlength=4)
            expected = len(idx) / 4.0
            assert np.all(np.abs(hist - expected) <= 0.2 * expected)


def test_partition_dirichlet_small_beta_is_skewed():
    # skewness oracle: with beta=0.5, K=10, some client's dominant class
    # holds > 40% of its data in at least 8 of 10 seeds
    hits = 0
    for seed in range(10):
        ds = data.generate_synthetic(10, 100, 3, 1.0, seed=seed)
        plan = data.partition_dirichlet(ds, 10, 0.5, 0.0, seed=seed)
        for idx in plan.client_indices:
            hist = np.bincount(ds.y[idx], minlength=10)
            if hist.max() > 0.4 * len(idx):
                hits += 1
                break
    assert hits >= 8


def test_partition_dirichlet_redraw_exhaustion():
    # one sample across two clients: someone is always empty
    ds = data.LabeledDataset(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 1)
    with pytest.raises(RuntimeError):
        data.partition_dirichlet(ds, 2, 0.5, 0.0, seed=0, max_redraws=20)


def test_build_eval_pools_equal_ifl_contribution():
    ds = data.generate_synthetic(2, 100, 3, 1.0, seed=0)
    plan = data.partition_iid(ds, 10, 0.1, seed=0)
    pools = data.build_eval_pools(plan, 0, 5, 9, 5, seed=1)
    owners = []
    for sid in pools.ifl_ids:
        owners.extend(k for k in range(10) if sid in set(plan.client_indices[k]))
    assert sorted(owners) == list(range(1, 10))  # exactly one per other client


def test_build_eval_pools_empty_members_ok():
    ds = data.generate_synthetic(2, 100, 3, 1.0, seed=0)
    plan = data.partition_iid(ds, 4, 0.2, seed=0)
    pools = data.build_eval_pools(plan, 1, 0, 6, 4, seed=2)
    assert len(pools.member_ids) == 0
    assert len(pools.ifl_ids) == 6
    assert len(pools.ofl_ids) == 4


def test_build_eval_pools_disjoint_any_seed():
    ds = data.generate_synthetic(3, 90, 3, 1.0, seed=0)
    plan = data.partition_iid(ds, 5, 0.2, seed=0)
    for seed in range(5):
        pools = data.build_eval_pools(plan, 2, 10, 12, 10, seed=seed)
        merged = np.concatenate([pools.member_ids, pools.ifl_ids, pools.ofl_ids])
        assert len(np.unique(merged)) == len(merged)


def test_build_eval_pools_insufficient_raises():
    ds = data.generate_synthetic(2, 20, 3, 1.0, seed=0)
    plan = data.partition_iid(ds, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        data.build_eval_pools(plan, 0, 50, 0, 0, seed=0)
    with pytest.raises(ValueError):
        data.build_eval_pools(plan, 0, 0, 0, 5, seed=0)  # empty OFL pool


def test_build_eval_pools_exclude_keeps_members_out():
    ds = data.generate_synthetic(2, 50, 3, 1.0, seed=0)
    plan = data.partition_iid(ds, 4, 0.0, seed=0)
    exclude = plan.client_indices[0][:10]
    pools = data.build_eval_pools(plan, 0, 10, 0, 0, seed=3, exclude=exclude)
    assert not set(pools.member_ids) & set(exclude)


@settings(max_examples=60, deadline=None)
@given(
    source=st.sets(st.integers(0, 5000), min_size=1, max_size=300),
    exclude=st.lists(st.integers(0, 5000), min_size=1, max_size=200, unique=True),
    take=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_eval_pools_exclude_matches_setdiff1d(source, exclude, take, seed):
    """Members drawn from a sorted, unique source minus `exclude` are the ones
    that np.setdiff1d's result gives the same generator."""
    member_src = np.array(sorted(source), dtype=np.int64)
    plan = data.PartitionPlan([member_src, np.array([5001])], np.empty(0, dtype=np.int64))
    usable = np.setdiff1d(member_src, np.array(exclude))
    members_n = int(take * len(usable))
    pools = data.build_eval_pools(plan, 0, members_n, 0, 0, seed=seed, exclude=np.array(exclude))
    rng = np.random.default_rng(seed)
    assert np.array_equal(pools.member_ids, np.sort(rng.choice(usable, members_n, replace=False)))


def test_csv_round_trip(tmp_path):
    ds = data.generate_synthetic(3, 7, 4, 1.3, seed=6)
    path = tmp_path / "toy.csv"
    save_csv(ds, str(path))
    back = data.load_csv(str(path))
    assert back.num_classes == 3
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.X, ds.X)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        data.load_csv(str(path))


def test_csv_rejects_negative_label(tmp_path):
    # a label that is not an integer is refused at its line too
    path = tmp_path / "neg.csv"
    for label, error in (("-1", "negative label"), ("1.0", "invalid literal for int")):
        path.write_text(f"f0,f1,label\n1.0,2.0,{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"neg\.csv:2: " + error):
            data.load_csv(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_csv_rejects_non_finite_features(tmp_path, value):
    # "abc" does not parse as a number; its line is named all the same
    path = tmp_path / "nan.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n{value},2.0,1\n", encoding="utf-8")
    error = "could not convert" if value == "abc" else "non-finite"
    with pytest.raises(ValueError, match=r"nan\.csv:3: " + error):
        data.load_csv(str(path))


def test_make_client_datasets_val_carve():
    ds = data.generate_synthetic(3, 40, 3, 1.0, seed=1)
    plan = data.partition_iid(ds, 4, 0.0, seed=1)
    clients = data.make_client_datasets(ds, plan, 0.1, seed=1)
    for client, idx in zip(clients, plan.client_indices):
        assert client.num_samples == len(idx)
        assert len(client.val_indices) == int(np.ceil(0.1 * len(idx)))
        merged = np.concatenate([client.train_indices, client.val_indices])
        assert sorted(merged) == sorted(idx)
