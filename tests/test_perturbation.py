"""Tests for the weight-orthogonal noise projection and tail perturbation."""

import numpy as np
import pytest

from fedpriv import perturbation as pert


def test_projection_hand_example():
    delta = pert.project_neutral(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(delta, [1.0, -1.0])


def test_projection_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 5.0, size=d)
        base = rng.normal(size=d)
        once = pert.project_neutral(base, w)
        twice = pert.project_neutral(once, w)
        assert np.max(np.abs(once - twice)) <= 1e-12


def test_projection_leaves_orthogonal_noise_unchanged():
    w = np.array([1.0, 2.0])
    base = np.array([2.0, -1.0])  # already orthogonal to w
    assert np.allclose(pert.project_neutral(base, w), base)


def test_projection_single_client_is_zero():
    assert pert.project_neutral(np.array([3.7]), np.array([2.0]))[0] == 0.0


def test_projection_rejects_zero_weights():
    with pytest.raises(ValueError):
        pert.project_neutral(np.array([1.0]), np.array([0.0]))


def test_projection_neutral_over_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(120):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.1, 10.0, size=d)
        delta = pert.project_neutral(rng.normal(0, 0.1, size=d), w)
        resid = abs(float(w @ delta))
        scale = float(np.max(np.abs(w * delta)))
        assert resid <= 1e-10 * max(scale, 1e-300)


def test_base_noise_zero_sigma():
    assert np.array_equal(pert.sample_base_noise(5, 0.0, np.random.default_rng(0)), np.zeros(5))


def test_base_noise_variance():
    rng = np.random.default_rng(2)
    draws = pert.sample_base_noise(100_000, 0.3, rng)
    assert abs(draws.var() - 0.09) <= 0.05 * 0.09


def test_base_noise_reproducible():
    a = pert.sample_base_noise(8, 0.5, np.random.default_rng(42))
    b = pert.sample_base_noise(8, 0.5, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_apply_perturbation_full_ratio():
    params = np.arange(6, dtype=np.float64)
    out = pert.apply_perturbation(params, 0.5, 1.0)
    assert np.allclose(out, params + 0.5)


def test_apply_perturbation_zero_delta_is_identity():
    params = np.arange(6, dtype=np.float64)
    assert np.array_equal(pert.apply_perturbation(params, 0.0, 0.5), params)


def test_apply_perturbation_hits_exact_tail():
    params = np.zeros(10)
    out = pert.apply_perturbation(params, 1.0, 0.25)  # floor(2.5) = 2 tail entries
    assert np.array_equal(out, np.array([0] * 8 + [1, 1], dtype=np.float64))


def test_apply_perturbation_empty_tail_warns_and_noops(caplog):
    params = np.arange(3, dtype=np.float64)
    with caplog.at_level("WARNING"):
        out = pert.apply_perturbation(params, 2.0, 0.1)  # floor(0.3) = 0
    assert np.array_equal(out, params)
    assert any("no-op" in rec.message for rec in caplog.records)


def test_verify_cancellation_projected_vs_unprojected():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 3.0, size=4)
    thetas = [rng.normal(size=20) for _ in range(4)]
    base = rng.normal(0, 0.1, size=4)
    projected = pert.project_neutral(base, w)
    pert_proj = [pert.apply_perturbation(t, float(d), 0.5) for t, d in zip(thetas, projected)]
    pert_raw = [pert.apply_perturbation(t, float(d), 0.5) for t, d in zip(thetas, base)]
    assert pert.verify_cancellation(pert_proj, thetas, w) <= 1e-8
    assert pert.verify_cancellation(pert_raw, thetas, w) > 1e-3  # negative control
    assert pert.verify_cancellation(thetas, thetas, w) == 0.0


def test_noise_plan_precomputed_and_neutral():
    plan = pert.build_noise_plan([3.0, 1.0, 2.0], sigma=0.2, rounds=7, seed=9)
    assert plan.deltas.shape == (7, 3)
    for t in range(1, 8):
        deltas = plan.round_deltas(t)
        assert abs(float(plan.weights @ deltas)) <= 1e-10 * np.max(np.abs(plan.weights * deltas))
    again = pert.build_noise_plan([3.0, 1.0, 2.0], sigma=0.2, rounds=7, seed=9)
    assert np.array_equal(plan.deltas, again.deltas)


def test_noise_plan_rejects_single_client_with_noise():
    with pytest.raises(ValueError):
        pert.build_noise_plan([2.0], sigma=0.1, rounds=3, seed=0)
    plan = pert.build_noise_plan([2.0], sigma=0.0, rounds=3, seed=0)
    assert np.array_equal(plan.deltas, np.zeros((3, 1)))


@pytest.mark.filterwarnings("error")
def test_noise_plan_that_is_not_finite_is_refused_by_round():
    with pytest.raises(FloatingPointError, match=r"^round 1: the noise of sigma 1e\+308 fails"):
        pert.build_noise_plan([40.0, 40.0], sigma=1e308, rounds=3, seed=0)
