"""Per-round class-subset assignment for the defender coalition.

Each coalition client trains only on samples whose labels fall in its
assigned subset. Subsets are sized by a decay schedule and chosen by a
randomized greedy that balances class usage while keeping the maximum
pairwise overlap close to its combinatorial lower bound
ceil(m * (d*m - N) / (N * (d - 1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClientDataset
from .rng import stream

DECAY_KINDS = ("linear", "cosine", "exp", "poly")


@dataclass(frozen=True)
class CoalitionSpec:
    """Coalition size, class-space size, subset-size bounds, decay family."""

    coalition_size: int
    num_classes: int
    m_max: int
    m_min: int
    decay: str
    rounds: int

    def __post_init__(self) -> None:
        if self.coalition_size < 1:
            raise ValueError("coalition_size must be >= 1")
        if not 1 <= self.m_min <= self.m_max <= self.num_classes:
            raise ValueError("need 1 <= m_min <= m_max <= num_classes")
        if self.decay not in DECAY_KINDS:
            raise ValueError(f"decay must be one of {DECAY_KINDS}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass
class ClassAssignmentSchedule:
    """Per-round subsets for each coalition member plus the achieved overlap."""

    subsets: list[list[frozenset[int]]]  # [round-1][member] -> class ids
    lambdas: list[int]  # achieved max pairwise overlap per round

    def round_subsets(self, round_t: int) -> list[frozenset[int]]:
        return self.subsets[round_t - 1]


def theoretical_overlap_bound(num_classes: int, coalition_size: int, m: int) -> int:
    """Lower bound on the max pairwise overlap of d size-m subsets of N classes.

    Returns max(0, ceil((d*m^2 - N*m) / (N*(d-1)))); defined as 0 for d=1
    (no pairs exist).
    """
    if not 1 <= m <= num_classes:
        raise ValueError("need 1 <= m <= num_classes")
    if coalition_size < 1:
        raise ValueError("coalition_size must be >= 1")
    if coalition_size == 1:
        return 0
    num = coalition_size * m * m - num_classes * m
    den = num_classes * (coalition_size - 1)
    return max(0, -((-num) // den))


def decay_subset_size(spec: CoalitionSpec, round_t: int) -> int:
    """Subset size m^t, non-increasing from m_max at t=1 to m_min at t=T."""
    if not 1 <= round_t <= spec.rounds:
        raise ValueError(f"round {round_t} outside [1, {spec.rounds}]")
    if spec.rounds == 1:
        return spec.m_min
    x = (round_t - 1) / (spec.rounds - 1)
    span = spec.m_max - spec.m_min
    if spec.decay == "linear":
        v = spec.m_max - span * x
    elif spec.decay == "cosine":
        v = spec.m_min + span * (1.0 + math.cos(math.pi * x)) / 2.0
    elif spec.decay == "exp":
        v = spec.m_min + span * math.exp(-5.0 * x)
    else:  # poly, degree 2
        v = spec.m_min + span * (1.0 - x) ** 2
    return int(min(spec.m_max, max(spec.m_min, math.floor(v))))


def _pairwise_overlap(masks: list[int]) -> int:
    """Max pairwise overlap of class subsets given as bitmasks (bit c = class c)."""
    worst = 0
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            worst = max(worst, (a & b).bit_count())
    return worst


def _greedy_pass(
    num_classes: int, d: int, m: int, overlap_cap: int, rng: np.random.Generator
) -> list[int] | None:
    """One randomized greedy placement as class bitmasks; None if the overlap
    cap is violated.

    Classes are picked lowest-usage-first; among equally used candidates the
    ones that keep every pairwise overlap within the cap are preferred (once
    an overlap is above the cap, no class is), with remaining ties broken by
    a seeded draw from the ascending candidates.
    """
    everything = (1 << num_classes) - 1
    by_use = [everything]  # by_use[f]: the classes that f subsets hold so far
    holders: list[list[int]] = [[] for _ in range(num_classes)]  # subsets holding each class
    masks: list[int] = []
    for _ in range(d):
        chosen = 0
        overlaps = [0] * len(masks)
        # the classes of the subsets at the cap, or all once one is above it;
        # at a cap of 0 every subset is at it, holding all classes used so far
        unsafe = 0 if overlap_cap else everything & ~by_use[0]
        for _ in range(m):
            use = next(f for f, classes in enumerate(by_use) if classes & ~chosen)
            candidates = by_use[use] & ~chosen
            pool = candidates & ~unsafe or candidates
            # the drawn index into the pool's classes in ascending order: drop
            # that many of its lowest classes and take the lowest one left
            for _ in range(rng.integers(0, pool.bit_count())):
                pool &= pool - 1
            pick = (pool & -pool).bit_length() - 1
            chosen |= 1 << pick
            by_use[use] ^= 1 << pick
            if use + 1 == len(by_use):
                by_use.append(0)
            by_use[use + 1] |= 1 << pick
            for i in holders[pick]:
                overlaps[i] += 1
                if overlaps[i] == overlap_cap:
                    unsafe |= masks[i]
                elif overlaps[i] > overlap_cap:
                    unsafe = everything
        if any(overlap > overlap_cap for overlap in overlaps):
            return None
        for c in _classes(chosen):
            holders[c].append(len(masks))
        masks.append(chosen)
    return masks


def _classes(mask: int) -> frozenset[int]:
    """The class ids whose bits are set in a class bitmask."""
    return frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)


def assign_classes(
    spec: CoalitionSpec, round_t: int, seed: int
) -> tuple[list[frozenset[int]], int]:
    """Assign a size-m^t class subset to every coalition member for one round.

    The overlap cap starts at the theoretical bound and is raised by one on
    each failed greedy pass (the cap m^t always succeeds). When the coalition
    can cover all classes (d * m^t >= N) the union of subsets is the full
    class set; otherwise coverage is maximized. Returns the subsets and the
    achieved maximum pairwise overlap, which is randomized per (seed, round)
    so the class-to-client mapping varies across rounds.
    """
    d, n = spec.coalition_size, spec.num_classes
    m = decay_subset_size(spec, round_t)
    rng = stream(seed, "assign", round_t)
    cap = theoretical_overlap_bound(n, d, m)
    while True:
        subsets = _greedy_pass(n, d, m, cap, rng)
        if subsets is not None:
            break
        cap += 1
        if cap > m:
            raise RuntimeError("overlap cap exceeded subset size")  # unreachable
    classes = [_classes(mask) for mask in subsets]
    if d * m >= n and len(frozenset().union(*classes)) != n:
        raise RuntimeError("greedy failed to cover the class set")  # unreachable
    return classes, _pairwise_overlap(subsets)


def build_schedule(spec: CoalitionSpec, seed: int) -> ClassAssignmentSchedule:
    """Precompute assignments for every round (coordinator-side, read-only after)."""
    subsets, lambdas = [], []
    for t in range(1, spec.rounds + 1):
        round_subsets, lam = assign_classes(spec, t, seed)
        subsets.append(round_subsets)
        lambdas.append(lam)
    return ClassAssignmentSchedule(subsets=subsets, lambdas=lambdas)


def select_assigned_subset(
    client: ClientDataset, classes: frozenset[int] | set[int]
) -> np.ndarray:
    """Positions (into the client's training arrays) whose labels are assigned.

    May be empty when the client holds no samples of the assigned classes,
    in which case the assignment is effectively ignored.
    """
    if not classes or not len(client.train_y):
        return np.empty(0, dtype=np.int64)
    assigned = np.zeros(max(max(classes), int(client.train_y.max())) + 1, dtype=bool)
    assigned[list(classes)] = True
    return np.flatnonzero(assigned[client.train_y])
