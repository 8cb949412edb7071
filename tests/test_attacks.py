"""Tests for trajectory extraction and the membership attacks."""

import math

import numpy as np
import pytest

from fedpriv import attacks as atk
from fedpriv import experiment as ex
from fedpriv import models
from fedpriv.data import EvalPools, LabeledDataset, PartitionPlan
from fedpriv.federation import SnapshotStore, aggregate_weighted
from fedpriv.models import ModelSpec
from harness import make_config, run_from_config
from oracles import folded_bias_out_stats, models_left_out_stats, per_model_out_stats


# --- fabricated stores with exactly known measurements ----------------------


def _loss_params(spec, target_loss):
    """Logistic params over 1 feature / 2 classes giving the requested loss
    for the sample (x=[1], y=0): logits (a, 0) with a = -ln(e^L - 1)."""
    params = np.zeros(spec.param_count)
    params[0] = -math.log(math.exp(target_loss) - 1.0)
    return params


def _set_rows(store, ds):
    """Give a hand-built store ds as its training rows, all of them in the OFL pool."""
    store.train = ds
    store.plan = PartitionPlan([np.arange(0)] * store.num_clients, np.arange(len(ds)))


def _loss_store(per_client_losses, rounds=(1,)):
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    store = SnapshotStore(spec, np.ones(len(per_client_losses), dtype=np.int64))
    for t in rounds:
        store.record(
            t,
            np.zeros(spec.param_count),
            np.stack([_loss_params(spec, lv) for lv in per_client_losses]),
        )
    ds = LabeledDataset(np.array([[1.0]]), np.array([0]), 2)
    _set_rows(store, ds)
    return store, ds


def test_loss_params_fixture_is_exact():
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    for target in (0.5, 1.0, 3.0):
        loss = models.per_sample_losses(spec, _loss_params(spec, target), [[1.0]], [0])[0]
        assert loss == pytest.approx(target, abs=1e-12)


# --- extraction ------------------------------------------------------------


def test_extract_alignment_with_recorded_rounds():
    cfg = make_config(clients=3, rounds=10, snapshot_every=5, samples_per_class=30)
    prep, state = run_from_config(cfg)
    values, rounds = atk.trajectory_matrix(
        state.store, ("local", 0), prep.train.X[:4], prep.train.y[:4], "loss"
    )
    assert state.store.rounds == [1, 5, 10]
    assert values.shape == (4, 3)
    assert np.array_equal(rounds, [1, 5, 10])


def test_extract_confidence_of_perfectly_fit_sample():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=3)
    fit = np.zeros(spec.param_count)
    fit[0] = 10.0  # class-0 weight on feature 0; x=(10,0) -> certainty
    store = SnapshotStore(spec, np.array([1]))
    store.record(1, np.zeros(spec.param_count), fit[None])
    ds = LabeledDataset(np.array([[10.0, 0.0]]), np.array([0]), 3)
    values, _ = atk.trajectory_matrix(store, ("local", 0), ds.X, ds.y, "confidence")
    assert values[0, 0] >= 0.999


def test_extract_grad_cosine_identity():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
    rng = np.random.default_rng(0)
    base = models.init_params(spec, rng)
    x, y = np.array([0.7, -1.2]), 1
    _, grad = models.loss_and_grad(spec, base, x[None, :], [y])
    store = SnapshotStore(spec, np.array([1]))
    store.record(1, base, (base + grad)[None])  # update direction equals gradient
    ds = LabeledDataset(x[None, :], np.array([y]), 2)
    values, _ = atk.trajectory_matrix(store, ("local", 0), ds.X, ds.y, "grad_cosine")
    assert values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_extract_rejects_unknown_kind_and_empty_store():
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    store = SnapshotStore(spec, np.array([1]))
    ds = LabeledDataset(np.array([[1.0]]), np.array([0]), 2)
    with pytest.raises(ValueError):
        atk.trajectory_matrix(store, ("local", 0), ds.X, ds.y, "loss")
    store.record(1, np.zeros(spec.param_count), np.zeros((1, spec.param_count)))
    for kind in ("sharpness", "entropy", "max_prob"):
        with pytest.raises(ValueError):
            atk.trajectory_matrix(store, ("local", 0), ds.X, ds.y, kind)


# --- score functions --------------------------------------------------------


def test_loss_series_scores():
    scores = atk.attack_loss_series(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]]))
    assert scores[0] == 0.0 and scores[1] == -1.0
    assert scores[2] == pytest.approx(-1.0)
    assert scores[0] > scores[1]  # member-style trajectory ranks first


def test_loss_series_identical_trajectories_tie():
    scores = atk.attack_loss_series(np.array([[0.5, 0.4], [0.5, 0.4]]))
    assert scores[0] == scores[1]


def test_avg_cosine_scores():
    scores = atk.attack_avg_cosine(np.array([[0.3, 0.3, 0.3], [0.9, 0.5, 0.1]]))
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(0.4)
    with pytest.raises(ValueError):
        atk.attack_avg_cosine(np.array([[0.5]]))


def test_fta_scores():
    rounds = np.array([1, 2, 3])
    loss = np.array([[3.0, 2.0, 1.0]])
    assert atk.attack_fta(loss, rounds, "loss")[0] == pytest.approx(1.0)  # OLS, collinear points
    conf = np.array([[0.4, 0.4, 0.4], [0.1, 0.5, 0.9]])
    scores = atk.attack_fta(conf, rounds, "confidence")
    assert scores[0] == pytest.approx(0.0)
    assert scores[1] == pytest.approx(0.4)
    losses = np.array([[3.0, 2.0, 1.0], [2.0, 2.0, 2.0]])
    s = atk.attack_fta(losses, rounds, "loss")
    assert s[0] > s[1]  # faster loss decrease ranks first


def test_fta_translation_invariance_only():
    rows = np.array([[3.0, 1.5, 1.0], [0.2, 0.9, 0.4]])
    base = atk.attack_fta(rows, np.array([1, 2, 3]), "loss")
    shifted = atk.attack_fta(rows, np.array([11, 12, 13]), "loss")
    stretched = atk.attack_fta(rows, np.array([1, 11, 21]), "loss")
    assert np.allclose(base, shifted, atol=1e-12)
    assert not np.allclose(base, stretched)  # slope depends on spacing


def test_loss_series_ignores_round_indices():
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    scores = []
    for rounds in ([1, 2, 3], [5, 50, 500]):
        store = SnapshotStore(spec, np.array([1]))
        for t, loss in zip(rounds, [3.0, 1.5, 1.0]):
            store.record(t, np.zeros(spec.param_count), _loss_params(spec, loss)[None])
        values, _ = atk.trajectory_matrix(store, ("local", 0), [[1.0]], [0], "loss")
        scores.append(atk.attack_loss_series(values))
    assert np.array_equal(scores[0], scores[1])


# --- OUT distribution and fedmia --------------------------------------------


def test_out_distribution_hand_statistics():
    store, ds = _loss_store([0.5, 1.0, 3.0])  # client 0 = target
    mean, std = atk._out_stats_matrix(store, ds.X, ds.y, {0}, "loss")
    assert mean[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert std[0, 0] == pytest.approx(1.0, abs=1e-12)  # population convention
    assert mean.shape == std.shape == (1, len(store.rounds))


@pytest.mark.filterwarnings("error")
def test_out_distribution_of_huge_losses_is_its_scaled_copy_bit_for_bit():
    # logits (a, 0) for x = [1] and class 0: the loss is -a exactly for a <= -40
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    stats = []
    for scale in (1.0, 2.0**1000):
        store = SnapshotStore(spec, np.ones(4, dtype=np.int64))
        uploads = np.zeros((4, spec.param_count))
        uploads[:, 0] = -scale * np.array([40.0, 50.0, 70.0, 41.0])
        store.record(1, np.zeros(spec.param_count), uploads)
        stats.append(atk._out_stats_matrix(store, np.array([[1.0]]), np.array([0]), {0}, "loss"))
    (mean, std), (huge_mean, huge_std) = stats
    assert mean[0, 0] == (50.0 + 70.0 + 41.0) / 3 and std[0, 0] > 1.0
    assert np.array_equal(_bits(huge_mean), _bits(mean * 2.0**1000))
    assert np.array_equal(_bits(huge_std), _bits(std * 2.0**1000))


def test_out_distribution_degenerate_spread_floors():
    store, ds = _loss_store([0.5, 1.0, 1.0])
    _, std = atk._out_stats_matrix(store, ds.X, ds.y, {0}, "loss")
    assert std[0, 0] == atk.OUT_STD_FLOOR


def test_out_distribution_needs_two_non_targets():
    store, ds = _loss_store([0.5, 1.0])
    with pytest.raises(ValueError):
        atk._out_stats_matrix(store, ds.X, ds.y, {0}, "loss")


def test_out_distribution_is_row_zero_of_out_stats_matrix():
    cfg = make_config(clients=4, rounds=10, snapshot_every=5, samples_per_class=30)
    prep, state = run_from_config(cfg)
    x, y = prep.train.X[:6], prep.train.y[:6]
    for kind in ("grad_cosine", "loss"):
        mean, std = atk._out_stats_matrix(state.store, x[:1], y[:1], {1}, kind)
        assert mean.shape == std.shape == (1, len(state.store.rounds))
        # the same sample inside a larger batch agrees to rounding
        batch_mean, batch_std = atk._out_stats_matrix(state.store, x, y, {1}, kind)
        assert np.allclose(mean[0], batch_mean[0], rtol=0, atol=1e-12)
        assert np.allclose(std[0], batch_std[0], rtol=0, atol=1e-12)


def test_fedmia_zero_when_target_matches_out_mean():
    store, _ = _loss_store([2.0, 1.0, 3.0], rounds=(1, 2, 3))
    scores = atk.attack_fedmia(store, np.array([0]), ("local", 0), "i")
    assert scores[0] == pytest.approx(0.0, abs=1e-9)


def test_fedmia_one_sigma_below_scores_plus_three():
    store, _ = _loss_store([1.0, 1.0, 3.0], rounds=(1, 2, 3))  # target loss 1, OUT mean 2 std 1
    scores = atk.attack_fedmia(store, np.array([0]), ("local", 0), "i")
    assert scores[0] == pytest.approx(3.0, abs=1e-9)


def test_fedmia_overfit_toy_auc_above_point_nine():
    # end-to-end oracle: skewed split + heavy local epochs separate the pools
    extra = "data.partition = dirichlet\ndata.beta = 0.3\n"
    cfg = make_config(
        clients=8,
        rounds=20,
        num_classes=10,
        samples_per_class=100,
        input_dim=12,
        spread=5.0,
        hidden=64,
        lr=0.2,
        epochs=8,
        snapshot_every=10,
        seed=3,
        members=15,
        ifl=25,
        ofl=15,
        extra=extra,
    )
    prep, state = run_from_config(cfg)
    pools = ex.build_pools(cfg, prep)
    # premise: member losses clearly below non-member losses under the target
    values, _ = atk.trajectory_matrix(
        state.store,
        ("local", 0),
        prep.train.X[np.concatenate([pools.member_ids, pools.ofl_ids])],
        prep.train.y[np.concatenate([pools.member_ids, pools.ofl_ids])],
        "loss",
    )
    member_loss = values[: len(pools.member_ids), -1].mean()
    ofl_loss = values[len(pools.member_ids) :, -1].mean()
    assert member_loss < ofl_loss
    result = atk.run_attack(state.store, pools, 0, "fedmia_i")
    assert result.auc > 0.9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["loss_series", "fta_c", "fedmia_i"])
def test_a_measurement_that_is_not_finite_is_refused_naming_the_attack_and_round(name):
    # client 0's model at round 2 overflows its class-0 logit for x = [1]
    store, _ = _loss_store([0.5, 1.0, 3.0], rounds=(1, 2, 3))
    store.locals[1, 0, [0, 2]] = 1e308
    _set_rows(store, LabeledDataset(np.array([[1.0], [1.0]]), np.array([0, 1]), 2))
    pools = EvalPools(np.array([0]), np.array([1]), np.array([], dtype=np.int64))
    what = {"fta_c": "confidence measurement", "fedmia_i": "loss measurement or its z-score"}
    with pytest.raises(ValueError, match=rf"^attack {name}: round 2: a {what.get(name, 'loss')}"):
        atk.run_attack(store, pools, 0, name)


@pytest.mark.filterwarnings("error")
def test_an_update_direction_that_overflows_is_refused_naming_the_attack_and_round():
    store, _ = _loss_store([0.5, 1.0, 3.0], rounds=(1, 2, 3))
    store.locals[1, 0, 0], store.globals[1, 0] = 1e308, -1e308  # their difference is inf
    _set_rows(store, LabeledDataset(np.array([[1.0], [1.0]]), np.array([0, 1]), 2))
    pools = EvalPools(np.array([0]), np.array([1]), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=r"^attack avg_cosine: round 2: a grad_cosine"):
        atk.run_attack(store, pools, 0, "avg_cosine")


# --- adaptive coalition target ----------------------------------------------


def test_adaptive_single_member_equals_local_target():
    cfg = make_config(clients=4, rounds=10, snapshot_every=5, samples_per_class=40)
    prep, state = run_from_config(cfg)
    pools = ex.build_pools(cfg, prep)
    local = atk.run_attack(state.store, pools, 0, "loss_series")
    adaptive = atk.run_attack(state.store, pools, 0, "loss_series", selector=("coalition", (0,)))
    assert np.allclose(local.scores, adaptive.scores, atol=1e-9)
    assert local.auc == pytest.approx(adaptive.auc, abs=1e-9)


def test_coalition_selector_is_weighted_mean():
    spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
    store = SnapshotStore(spec, np.array([3, 3]))  # equal weights
    a, b = np.arange(4.0), np.arange(4.0) * 3
    store.record(1, np.zeros(4), np.stack([a, b]))
    got = atk._target_series(store, ("coalition", (0, 1)), "loss")[0]
    assert np.allclose(got, (a + b) / 2)


@pytest.mark.parametrize("selector", [("local", -1), ("local", 2), ("coalition", (0, 2))])
def test_selector_naming_a_missing_client_is_rejected(selector):
    store, ds = _loss_store([0.5, 1.0])
    with pytest.raises(ValueError, match="outside"):
        atk.trajectory_matrix(store, selector, ds.X, ds.y, "loss")


def test_label_shuffle_gives_chance_auc():
    cfg = make_config(clients=5, rounds=10, snapshot_every=5, samples_per_class=60)
    prep, state = run_from_config(cfg)
    pools = ex.build_pools(cfg, prep)
    result = atk.run_attack(state.store, pools, 0, "loss_series")
    rng = np.random.default_rng(0)
    aucs = []
    for _ in range(20):
        shuffled = rng.permutation(result.labels)
        if shuffled.sum() in (0, len(shuffled)):
            continue
        aucs.append(atk.evaluate_attack(result.scores, shuffled).auc)
    assert 0.45 <= float(np.mean(aucs)) <= 0.55


def test_run_attack_rejects_unknown_name():
    cfg = make_config(clients=3, rounds=2, samples_per_class=30, members=6, ifl=6, ofl=6)
    prep, state = run_from_config(cfg)
    pools = ex.build_pools(cfg, prep)
    with pytest.raises(ValueError):
        atk.run_attack(state.store, pools, 0, "shadow_model")


def test_the_attacks_refuse_a_store_without_rows():
    store, _ = _loss_store([0.5, 1.0, 3.0])
    store.train = None
    pools = EvalPools(np.array([0]), np.array([], dtype=np.int64), np.array([0]))
    with pytest.raises(ValueError, match=r"no training rows \('rows', 'labels', 'owners'\)"):
        atk.run_attacks(store, pools, 0, ["loss_series"])
    with pytest.raises(ValueError, match="no training rows"):
        atk.attack_fedmia(store, np.array([0]), ("local", 0), "i")


# --- stacked OUT forwards and measurements shared within one stage ----------


def _random_store(spec, clients, rounds, seed):
    rng = np.random.default_rng(seed)
    store = SnapshotStore(spec, rng.integers(10, 50, clients))
    for t in range(1, rounds + 1):
        uploads = rng.normal(size=(clients, spec.param_count))
        store.record(t, rng.normal(size=spec.param_count), uploads)
    return store, rng


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


LOGREG_CHUNKED = ModelSpec(input_dim=5, hidden_dim=0, num_classes=4)  # 33 models a run at n = 1000
MLP_CHUNKED = ModelSpec(input_dim=5, hidden_dim=16, num_classes=3)  # 3 models a chunk at n = 300
SCALE_K40 = ModelSpec(12, 64, 10)  # 24 models a run and 1 a forward pass at n = 550
DIRICHLET_LOGREG = ModelSpec(20, 0, 10)  # 32 models a run at n = 410


def _chunk(spec, n):
    """Models per forward pass of `models.measure_models`: an MLP's pass
    keeps their hidden layers within STACK_CHUNK_BYTES, and a logistic
    regression's is its run, the fewest whose logits hold MEASURE_RUN_BYTES."""
    if spec.hidden_dim:
        return max(1, models.STACK_CHUNK_BYTES // (8 * spec.hidden_dim * n))
    return max(1, -(-models.MEASURE_RUN_BYTES // (8 * spec.num_classes * n)))


@pytest.mark.parametrize(
    "spec, n",
    [(LOGREG_CHUNKED, 1000), (MLP_CHUNKED, 300), (ModelSpec(12, 64, 10), 110)],
    # under 120 rows at 10 classes, the output layer's GEMM has at most
    # SMALL_GEMM_OUTPUTS outputs
    ids=["logistic", "mlp", "mlp-small-gemm"],
)
@pytest.mark.parametrize("kind", ["loss", "confidence"])
def test_a_stack_of_models_gives_each_model_its_values_alone(spec, n, kind, monkeypatch):
    # runs and forward passes of one model, of two or five, of the default
    # sizes, and of all 12 models
    store, rng = _random_store(spec, 12, 1, seed=4)
    x, y = rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n)
    alone = np.stack([models.measure_models(spec, p[None], x, y, kind)[0] for p in store.locals[0]])
    h, c = spec.hidden_dim, spec.num_classes
    defaults = [(models.STACK_CHUNK_BYTES, models.MEASURE_RUN_BYTES)]
    sizes = [(b, b) for b in (1, 2 * 8 * c * n, 5 * 8 * (h or c) * n, 10**9)] + defaults
    for chunk_bytes, run_bytes in sizes:
        monkeypatch.setattr(models, "STACK_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(models, "MEASURE_RUN_BYTES", run_bytes)
        for g in (1, 5, 12):
            got = models.measure_models(spec, store.locals[0][:g], x, y, kind)
            assert got.shape == (g, n)
            assert np.array_equal(_bits(got), _bits(alone[:g])), (chunk_bytes, g)


@pytest.mark.parametrize(
    "spec, n",
    [(LOGREG_CHUNKED, 1000), (MLP_CHUNKED, 300), (SCALE_K40, 550), (DIRICHLET_LOGREG, 410)],
    ids=["logistic", "mlp", "scale_k40", "logistic-10"],
)
def test_loss_and_confidence_from_one_pass_equal_separate_calls_bit_for_bit(spec, n):
    # 40 models: more than one run at every shape
    store, rng = _random_store(spec, 40, 2, seed=11)
    x, y = rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n)
    for kinds in (("loss", "confidence"), ("confidence", "loss")):
        both = models.measure_models(spec, store.locals[0], x, y, kinds)
        assert len(both) == 2
        for kind, got in zip(kinds, both):
            alone = models.measure_models(spec, store.locals[0], x, y, kind)
            assert got.shape == (40, n) and np.array_equal(_bits(got), _bits(alone)), kind
    both, rounds = atk.trajectory_matrix(store, ("local", 1), x, y, ("loss", "confidence"))
    for kind, got in zip(("loss", "confidence"), both):
        alone, alone_rounds = atk.trajectory_matrix(store, ("local", 1), x, y, kind)
        assert got.flags.c_contiguous and np.array_equal(_bits(got), _bits(alone)), kind
        assert np.array_equal(rounds, alone_rounds)


@pytest.mark.parametrize(
    "spec, n, others",
    [
        (LOGREG_CHUNKED, 1000, lambda c: c + 1),
        (LOGREG_CHUNKED, 1000, lambda c: 2 * c),
        (MLP_CHUNKED, 300, lambda c: c + 1),
        # the workloads' 10 classes over more than one run of models
        (SCALE_K40, 550, lambda c: 39),
        (DIRICHLET_LOGREG, 410, lambda c: c + 7),
    ],
    ids=["logistic-chunk+1", "logistic-2chunks", "mlp", "scale_k40-2runs", "logistic-10-2runs"],
)
@pytest.mark.parametrize("kind", ["loss", "confidence"])
def test_out_stats_equal_the_per_model_loop_bit_for_bit(spec, n, others, kind):
    g = others(_chunk(spec, n))
    if spec.num_classes == 10:  # the workload-shaped cases take two runs a round
        assert g > -(-models.MEASURE_RUN_BYTES // (8 * spec.num_classes * n))
    store, rng = _random_store(spec, g + 1, 3, seed=5)
    x, y = rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n)
    got = atk._out_stats_matrix(store, x, y, {0}, kind)
    want = folded_bias_out_stats(store, x, y, {0}, kind)
    for a, b in zip(got, want):
        assert a.shape == (n, 3)
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize(
    "spec", [ModelSpec(12, 64, 10), ModelSpec(20, 0, 10)], ids=["scale_k40", "logistic"]
)
@pytest.mark.parametrize("kind", ["loss", "confidence"])
def test_out_stats_drift_from_the_row_major_path_by_at_most_1e_13(spec, kind):
    """scale_k40's OUT shape (39 models, 550 rows) and a logistic regression;
    the bound is relative above 1."""
    store, rng = _random_store(spec, 40, 2, seed=8)
    x, y = rng.normal(size=(550, spec.input_dim)), rng.integers(0, spec.num_classes, 550)
    got = atk._out_stats_matrix(store, x, y, {0}, kind)
    for a, b in zip(got, per_model_out_stats(store, x, y, {0}, kind)):
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize(
    "spec", [ModelSpec(12, 64, 10), ModelSpec(20, 0, 10)], ids=["scale_k40", "logistic"]
)
@pytest.mark.parametrize("kind", ["loss", "confidence"])
def test_out_stats_drift_from_the_unfolded_models_left_path_by_at_most_1e_13(spec, kind):
    """The same shapes against the models-left loop that adds each bias
    after its product; the bound is relative above 1."""
    store, rng = _random_store(spec, 40, 2, seed=8)
    x, y = rng.normal(size=(550, spec.input_dim)), rng.integers(0, spec.num_classes, 550)
    got = atk._out_stats_matrix(store, x, y, {0}, kind)
    for a, b in zip(got, models_left_out_stats(store, x, y, {0}, kind)):
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


def _per_round_target(store, selector, kind, row):
    """The attacked model of one recorded round, resolved as the attacks did
    one round at a time."""
    locals_t = store.locals[row]
    if selector == "global":
        if kind == "grad_cosine":
            return aggregate_weighted(locals_t, store.client_sizes)
        return store.globals[row]
    if selector[0] == "local":
        return locals_t[selector[1]]
    ids = list(selector[1])
    return aggregate_weighted(locals_t[ids], store.client_sizes[ids])


@pytest.mark.parametrize(
    "spec, n", [(LOGREG_CHUNKED, 1000), (MLP_CHUNKED, 300)], ids=["logistic", "mlp"]
)
@pytest.mark.parametrize("selector", ["global", ("local", 2), ("coalition", (0, 2))])
@pytest.mark.parametrize("kind", ["loss", "confidence", "grad_cosine"])
def test_trajectory_equals_the_per_round_loop_bit_for_bit(spec, n, selector, kind, monkeypatch):
    # 5 rounds are more models than one forward pass takes at these shapes,
    # with runs of 2 logistic models
    monkeypatch.setattr(models, "MEASURE_RUN_BYTES", 2 * 8 * spec.num_classes * n)
    store, rng = _random_store(spec, 3, 5, seed=6)
    x, y = rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n)
    values, rounds = atk.trajectory_matrix(store, selector, x, y, kind)
    want = []
    for row in range(len(store.rounds)):
        stack = _per_round_target(store, selector, kind, row)[None]
        if kind == "grad_cosine":  # the caller builds the update direction
            stack = stack - store.globals[row]
            want.append(atk._grad_cosines(spec, store.globals[row], x, y, stack)[0])
        else:
            want.append(models.measure_models(spec, stack, x, y, kind)[0])
    want = np.column_stack(want)
    assert values.shape == (n, 5) and values.flags.c_contiguous
    assert np.array_equal(_bits(values), _bits(want))
    assert np.array_equal(rounds, store.rounds)


def test_measure_models_rejects_a_parameter_stack_of_the_wrong_width():
    spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
    for bad in (np.zeros(5), np.zeros((3, 5)), np.zeros((1, 2, 6))):
        with pytest.raises(ValueError, match="expected"):
            models.measure_models(spec, bad, np.zeros((1, 2)), [0], "loss")


ALL_ATTACKS = "loss_series,avg_cosine,fta_l,fta_c,fedmia_i,fedmia_ii"


@pytest.mark.parametrize("target", ["local", "coalition"])
def test_stage_attack_computes_each_measurement_once(tmp_path, monkeypatch, target):
    extra = f"attack.list = {ALL_ATTACKS}\nattack.target = {target}\n"
    extra += "defense.kind = grad_noise\ndefense.coalition = 0,1\n"
    cfg = make_config(
        clients=5, rounds=10, snapshot_every=5, samples_per_class=40, members=10, extra=extra
    )
    state = ex.stage_train(cfg, str(tmp_path))
    rounds = len(state.store.rounds)
    calls = []
    cosines = atk._grad_cosines
    monkeypatch.setattr(atk, "_grad_cosines", lambda *a: calls.append(1) or cosines(*a))
    ex.stage_attack(cfg, str(tmp_path), store=state.store)
    assert len(calls) == rounds  # fedmia_ii measures the target with its OUT clients
    shared_csv = (tmp_path / ex.ATTACKS_CSV).read_bytes()

    prep = ex.prepare_data(cfg)
    pools = ex.build_pools(cfg, prep)
    selector = atk.attack_selector(cfg.attack_target, cfg.target_client, cfg.coalition)
    alone = [
        atk.run_attack(state.store, pools, cfg.target_client, name, selector=selector)
        for name in cfg.attack_list
    ]
    ex.write_attacks_csv(str(tmp_path / "alone.csv"), alone)
    assert (tmp_path / "alone.csv").read_bytes() == shared_csv
    assert len(calls) == rounds + 2 * rounds  # unshared, avg_cosine measures the target again


@pytest.mark.parametrize(
    "names", ["fta_l,fta_c", "loss_series,fta_c,fedmia_i", "fta_l,loss_series"]
)
def test_a_stage_that_reads_loss_and_confidence_measures_the_target_once(
    tmp_path, monkeypatch, names
):
    cfg = make_config(
        clients=5, rounds=10, snapshot_every=5, samples_per_class=40, members=10,
        extra=f"attack.list = {names}\n",
    )
    state = ex.stage_train(cfg, str(tmp_path))
    calls = []
    measure = models.measure_models
    monkeypatch.setattr(models, "measure_models", lambda *a: calls.append(a[4]) or measure(*a))
    ex.stage_attack(cfg, str(tmp_path), store=state.store)
    staged = (tmp_path / ex.ATTACKS_CSV).read_bytes()
    # one call over the target's series, and fedmia_i's OUT statistic one a round
    out_calls = len(state.store.rounds) if "fedmia_i" in names else 0
    assert len(calls) == 1 + out_calls
    assert (("loss", "confidence") in calls) == ("fta_c" in names)

    prep = ex.prepare_data(cfg)
    pools = ex.build_pools(cfg, prep)
    alone = [atk.run_attack(state.store, pools, 0, name) for name in cfg.attack_list]
    ex.write_attacks_csv(str(tmp_path / "alone.csv"), alone)
    assert (tmp_path / "alone.csv").read_bytes() == staged


def test_avg_cosine_alone_makes_one_direction_calls(tmp_path, monkeypatch):
    cfg = make_config(
        clients=5, rounds=10, snapshot_every=5, samples_per_class=40, members=10,
        extra="attack.list = avg_cosine\n",
    )
    state = ex.stage_train(cfg, str(tmp_path))
    directions = []
    cosines = atk._grad_cosines

    def record(*a):
        directions.append(len(a[4]))
        return cosines(*a)

    monkeypatch.setattr(atk, "_grad_cosines", record)
    ex.stage_attack(cfg, str(tmp_path), store=state.store)
    assert directions == [1] * len(state.store.rounds)


@pytest.mark.parametrize("selector", [("local", 0), ("coalition", (0, 1))])
def test_no_result_depends_on_the_order_of_the_attacks(tmp_path, monkeypatch, selector):
    cfg = make_config(
        clients=5, rounds=10, snapshot_every=5, samples_per_class=40, members=10,
        extra="defense.kind = grad_noise\ndefense.coalition = 0,1\n",
    )
    state = ex.stage_train(cfg, str(tmp_path))
    prep = ex.prepare_data(cfg)
    pools = ex.build_pools(cfg, prep)
    calls = []
    cosines, measure = atk._grad_cosines, models.measure_models
    monkeypatch.setattr(atk, "_grad_cosines", lambda *a: calls.append("cos") or cosines(*a))
    monkeypatch.setattr(models, "measure_models", lambda *a: calls.append(a[4]) or measure(*a))
    # as listed (FedMIA-II last), reversed (FedMIA-II first), and FedMIA-II
    # first with Avg-Cosine last
    listed = list(atk.ATTACK_NAMES)
    shuffled = ["fedmia_ii", "fta_c", "fedmia_i", "loss_series", "fta_l", "avg_cosine"]
    orders = [listed, listed[::-1], shuffled]
    assert listed[-1] == "fedmia_ii" and sorted(shuffled) == sorted(listed)
    scores, counts = [], []
    for names in orders:
        calls.clear()
        results = atk.run_attacks(state.store, pools, 0, names, selector=selector)
        assert [r.attack for r in results] == names
        scores.append({r.attack: r.scores for r in results})
        counts.append(sorted(map(str, calls)))
    for got, count in zip(scores[1:], counts[1:]):
        assert count == counts[0]
        for name in listed:
            assert np.array_equal(_bits(got[name]), _bits(scores[0][name])), name


@pytest.mark.parametrize(
    "spec", [ModelSpec(12, 64, 10), ModelSpec(20, 0, 10)], ids=["scale_k40", "logistic"]
)
@pytest.mark.parametrize("selector", [("local", 0), ("coalition", (0, 2))])
def test_a_target_measured_with_its_out_clients_drifts_by_at_most_1e_15(spec, selector):
    """FedMIA-II's call a round (the target's direction, then its OUT
    clients') against the target's call of its own, at scale_k40's shape."""
    store, rng = _random_store(spec, 40, 3, seed=9)
    x, y = rng.normal(size=(550, spec.input_dim)), rng.integers(0, spec.num_classes, 550)
    exclude = atk.fedmia_excluded(selector)
    series = atk._target_series(store, selector, "grad_cosine")
    merged = atk._out_stats_matrix(store, x, y, exclude, "grad_cosine", series)
    alone, _ = atk.trajectory_matrix(store, selector, x, y, "grad_cosine")
    assert merged[2].shape == alone.shape == (550, 3) and merged[2].flags.c_contiguous
    assert np.abs(merged[2] - alone).max() <= 1e-15
    # the OUT statistic is the one of a call without the target
    for a, b in zip(merged[:2], atk._out_stats_matrix(store, x, y, exclude, "grad_cosine")):
        assert np.abs(a - b).max() <= 1e-15

