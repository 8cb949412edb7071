"""Aggregation-neutral perturbation of coalition model parameters.

Each coalition member adds one scalar to the tail of its flat parameter
vector. The scalars are Gaussian draws projected onto the hyperplane
orthogonal to the aggregation-weight vector, so the weighted sum of the
injected noise is zero and the aggregated global model is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream


@dataclass(frozen=True)
class NoisePlan:
    """Precomputed per-round per-client scalar noises for one coalition.

    deltas has shape (rounds, coalition_size); row t-1 holds the projected
    scalars for round t.
    """

    weights: np.ndarray
    deltas: np.ndarray

    def round_deltas(self, round_t: int) -> np.ndarray:
        return self.deltas[round_t - 1]


def project_neutral(base: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Project base noises onto the hyperplane orthogonal to the weight vector.

    Returns delta with sum_k w_k * delta_k = 0 (exact in exact arithmetic;
    within ~1e-10 relative in floating point). A single client always maps
    to zero noise.
    """
    base = np.asarray(base, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if base.shape != weights.shape or base.ndim != 1:
        raise ValueError("base and weights must be equal-length vectors")
    wsq = float(weights @ weights)
    if wsq == 0.0:
        raise ValueError("weight vector is zero")
    return base - weights * (float(weights @ base) / wsq)


def sample_base_noise(
    coalition_size: int, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. N(0, sigma^2) scalar per coalition member."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return np.zeros(coalition_size)
    return rng.normal(0.0, sigma, size=coalition_size)


def apply_perturbation(params: np.ndarray, delta: float, tail_ratio: float) -> np.ndarray:
    """Shift the last floor(tail_ratio * P) parameters by the scalar delta.

    The leading parameters are untouched. A tail of zero length (tail_ratio
    too small for the model) is refused: it would leave the model
    unperturbed.
    """
    if not 0.0 < tail_ratio <= 1.0:
        raise ValueError("tail_ratio must be in (0, 1]")
    p = len(params)
    tail = int(np.floor(tail_ratio * p))
    if tail == 0:
        raise ValueError(f"perturbation tail is empty (tail_ratio={tail_ratio:g}, P={p})")
    out = params.copy()
    out[p - tail :] += delta
    return out


def verify_cancellation(
    perturbed: list[np.ndarray], unperturbed: list[np.ndarray], weights
) -> float:
    """Max-coordinate gap between the weighted aggregates of the two lists."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    agg_p = sum(w * p for w, p in zip(weights, perturbed)) / total
    agg_u = sum(w * p for w, p in zip(weights, unperturbed)) / total
    return float(np.max(np.abs(agg_p - agg_u)))


def build_noise_plan(weights, sigma: float, rounds: int, seed: int) -> NoisePlan:
    """Precompute projected scalar noises for every round (coordinator-side).

    Round t's base noises come from the stream (seed, "perturb", t), so all
    members' scalars are mutually consistent without runtime exchange; a
    round whose noise overflows or fails to cancel raises FloatingPointError.
    """
    weights = np.asarray(weights, dtype=np.float64)
    d = len(weights)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if sigma > 0 and d < 2:
        raise ValueError("perturbation with sigma > 0 needs a coalition of >= 2")
    deltas = np.zeros((rounds, d))
    for t in range(1, rounds + 1):
        base = sample_base_noise(d, sigma, stream(seed, "perturb", t))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            delta = project_neutral(base, weights)
            resid = abs(float(weights @ delta))
            scale = float(np.max(np.abs(weights * delta)))
        if not (np.isfinite(scale) and resid <= 1e-10 * scale):
            raise FloatingPointError(f"round {t}: the noise of sigma {sigma:g} fails to cancel")
        deltas[t - 1] = delta
    return NoisePlan(weights=weights, deltas=deltas)
