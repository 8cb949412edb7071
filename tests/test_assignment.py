"""Tests for the class-subset assignment: bound, decay, greedy assigner."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import assignment as asg
from fedpriv.data import ClientDataset
from harness import library_configs
from oracles import brute_min_max_overlap, set_greedy_pass


def test_bound_examples():
    assert asg.theoretical_overlap_bound(10, 2, 5) == 0
    assert asg.theoretical_overlap_bound(10, 2, 10) == 10
    assert asg.theoretical_overlap_bound(7, 3, 2) == 0  # negative numerator clamps


def test_bound_matches_brute_force_small_case():
    lower = asg.theoretical_overlap_bound(4, 3, 2)
    assert lower == 1
    assert brute_min_max_overlap(4, 3, 2, lower_bound=lower) == 1


def test_bound_single_client_is_zero():
    assert asg.theoretical_overlap_bound(10, 1, 5) == 0


def _config(d, n, m_max, m_min, rounds, decay="linear", seed=0):
    """The validated config of a d-member coalition over n classes, with its
    class bounds resolved, as the round loop reads it."""
    return library_configs(
        num_clients=max(2, d), rounds=rounds, seed=seed, num_classes=n, defense="coalition",
        coalition=tuple(range(d)), m_max=m_max, m_min=m_min, decay=decay, t0=1, sigma=0.0,
    )[1]


def test_decay_endpoints_and_midpoint():
    cfg = _config(2, 60, 50, 20, 100)
    assert asg.decay_subset_size(cfg, 1) == 50
    assert asg.decay_subset_size(cfg, 100) == 20
    assert asg.decay_subset_size(cfg, 50) == 35  # floor(50 - 30*49/99)


def test_decay_single_round_returns_min():
    cfg = _config(2, 10, 8, 3, 1)
    assert asg.decay_subset_size(cfg, 1) == 3


@pytest.mark.parametrize("decay", asg.DECAY_KINDS)
def test_decay_families_monotone_within_bounds(decay):
    cfg = _config(3, 30, 25, 5, 40, decay)
    values = [asg.decay_subset_size(cfg, t) for t in range(1, 41)]
    assert values[0] == 25
    assert values[-1] == 5
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(5 <= v <= 25 for v in values)


def test_decay_rejects_out_of_range_round():
    cfg = _config(2, 10, 5, 2, 10)
    with pytest.raises(ValueError):
        asg.decay_subset_size(cfg, 0)
    with pytest.raises(ValueError):
        asg.decay_subset_size(cfg, 11)


def test_assign_exact_partition_when_possible():
    subsets, lam = asg.assign_classes(_config(2, 4, 2, 2, 3, seed=0), 4, 1)
    assert lam == 0
    assert len(subsets[0] & subsets[1]) == 0
    assert subsets[0] | subsets[1] == frozenset(range(4))


def test_assign_matches_brute_force_optimum():
    subsets, lam = asg.assign_classes(_config(3, 4, 2, 2, 3, seed=0), 4, 1)
    assert all(len(s) == 2 for s in subsets)
    assert frozenset().union(*subsets) == frozenset(range(4))
    assert lam == brute_min_max_overlap(4, 3, 2, lower_bound=1) == 1


def test_assign_single_client_full_set():
    subsets, lam = asg.assign_classes(_config(1, 5, 5, 5, 2, seed=3), 5, 1)
    assert subsets == [frozenset(range(5))]
    assert lam == 0


def test_assign_varies_across_rounds():
    # the class-to-client mapping is randomized per round
    cfg = _config(2, 8, 4, 4, 20, seed=5)
    seen = {tuple(sorted(asg.assign_classes(cfg, 8, t)[0][0])) for t in range(1, 21)}
    assert len(seen) > 1


def test_assign_below_coverage_threshold_minimizes_overlap():
    # d*m < N: full coverage impossible; subsets stay disjoint (lambda 0)
    subsets, lam = asg.assign_classes(_config(2, 10, 2, 2, 3, seed=1), 10, 1)
    assert all(len(s) == 2 for s in subsets)
    assert lam == 0


def test_schedule_properties_random_specs():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(2, 5))
        m_max = int(rng.integers(2, n + 1))
        m_min = int(rng.integers(1, m_max + 1))
        rounds = int(rng.integers(2, 9))
        cfg = _config(d, n, m_max, m_min, rounds, seed=int(rng.integers(0, 1000)))
        schedule = asg.build_schedule(cfg, n)
        for t in range(1, rounds + 1):
            m = asg.decay_subset_size(cfg, t)
            subsets = schedule.round_subsets(t)
            assert all(len(s) == m for s in subsets)
            assert schedule.lambdas[t - 1] >= asg.theoretical_overlap_bound(n, d, m)
            if d * m >= n:
                assert frozenset().union(*subsets) == frozenset(range(n))
            # greedy keeps per-class usage balanced within the coalition size
            counts = np.zeros(n, dtype=int)
            for s in subsets:
                for c in s:
                    counts[c] += 1
            assert counts.max() - counts.min() <= d


def test_schedule_deterministic():
    cfg = _config(3, 10, 6, 2, 12, seed=42)
    a = asg.build_schedule(cfg, 10)
    b = asg.build_schedule(cfg, 10)
    assert a.subsets == b.subsets
    assert a.lambdas == b.lambdas


def _toy_client():
    x = np.arange(12, dtype=np.float64).reshape(6, 2)
    y = np.array([0, 0, 0, 1, 2, 1])
    return ClientDataset(
        client_id=0,
        train_X=x,
        train_y=y,
        val_X=np.empty((0, 2)),
        val_y=np.empty(0, dtype=np.int64),
        train_indices=np.arange(6),
        val_indices=np.empty(0, dtype=np.int64),
    )


def test_select_assigned_subset_all_classes():
    client = _toy_client()
    pos = asg.select_assigned_subset(client, frozenset({0, 1, 2}))
    assert np.array_equal(pos, np.arange(6))


def test_select_assigned_subset_empty():
    assert len(asg.select_assigned_subset(_toy_client(), frozenset())) == 0


def test_select_assigned_subset_filters_exactly():
    pos = asg.select_assigned_subset(_toy_client(), frozenset({0}))
    assert np.array_equal(pos, np.array([0, 1, 2]))


def test_select_assigned_subset_ignores_classes_the_client_lacks():
    pos = asg.select_assigned_subset(_toy_client(), frozenset({2, 7}))
    assert np.array_equal(pos, np.array([4]))
    assert pos.dtype == np.intp


@st.composite
def greedy_passes(draw):
    """(N, d, m, cap, seed) of one greedy pass; a cap anywhere in [0, m], so
    that passes fail and overlaps pass the cap partway through a subset."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    return n, draw(st.integers(1, 6)), m, draw(st.integers(0, m)), draw(st.integers(0, 2**32 - 1))


class PoolRecorder:
    """A seeded generator that records the size of every pool drawn from."""

    def __init__(self, seed):
        self.rng, self.pools = np.random.default_rng(seed), []

    def integers(self, low, high):
        self.pools.append(high - low)
        return self.rng.integers(low, high)

    def choice(self, pool):
        self.pools.append(len(pool))
        return self.rng.choice(pool)


def _assert_bitmask_greedy_equals_set_greedy(case):
    # equal pools, not only equal results: a failed pass's picks are thrown
    # away, and a draw from a pool of another size mostly leaves the
    # generator in the same state
    n, d, m, cap, seed = case
    rng, oracle_rng = PoolRecorder(seed), PoolRecorder(seed)
    masks = asg._greedy_pass(n, d, m, cap, rng)
    want = set_greedy_pass(n, d, m, cap, oracle_rng)
    assert (None if masks is None else [set(asg._classes(mask)) for mask in masks]) == want
    assert rng.pools == oracle_rng.pools
    assert rng.rng.bit_generator.state == oracle_rng.rng.bit_generator.state
    if masks is not None:
        assert asg._pairwise_overlap(masks) == max(
            (len(a & b) for i, a in enumerate(want) for b in want[i + 1 :]), default=0
        )


@settings(max_examples=400, deadline=None)
@given(case=greedy_passes())
def test_bitmask_greedy_pass_equals_the_set_greedy(case):
    _assert_bitmask_greedy_equals_set_greedy(case)


def _passes_the_cap(case):
    over_cap = []
    set_greedy_pass(*case[:4], np.random.default_rng(case[4]), over_cap)
    return len(over_cap) > 0


def test_bitmask_greedy_agrees_on_picks_made_after_an_overlap_passed_the_cap():
    # the random draws above reach such picks now and then, this grid for
    # sure. On it, a looser rule (only the classes of a subset at or above
    # the cap are unsafe) happens to draw from the same pools, so this checks
    # that the branch runs and agrees, not that it changes a draw.
    grid = itertools.product(range(2, 9), range(2, 5), range(1, 9), range(8), range(4))
    cases = [(n, d, m, cap, seed) for n, d, m, cap, seed in grid if cap < m <= n]
    reached = [case for case in cases if _passes_the_cap(case)]
    assert len(reached) >= 50
    for case in reached:
        _assert_bitmask_greedy_equals_set_greedy(case)


@functools.lru_cache(maxsize=None)
def _optimum(n, d, m):
    return brute_min_max_overlap(n, d, m, lower_bound=asg.theoretical_overlap_bound(n, d, m))


@st.composite
def covering_cases(draw):
    """(N, d, m) with N <= 6 classes, 2 <= d <= 4 members and d * m >= N."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4))
    m = draw(st.integers(-(-n // d), n))
    return n, d, m


# The greedy is not always optimal: on this grid with seeds 0-19 it matched
# the exhaustive optimum at round 1 in 940 of 980 cases and was one above it in the rest.
@settings(max_examples=200, deadline=None)
@given(case=covering_cases(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_greedy_overlap_lies_between_bound_optimum_and_subset_size(case, seed, data):
    n, d, m = case
    rounds = data.draw(st.integers(1, 8), label="rounds")
    round_t = data.draw(st.integers(1, rounds), label="round_t")
    subsets, lam = asg.assign_classes(_config(d, n, m, m, rounds, seed=seed), n, round_t)
    assert asg.theoretical_overlap_bound(n, d, m) <= _optimum(n, d, m) <= lam <= m
    assert all(len(s) == m for s in subsets)
    assert frozenset().union(*subsets) == frozenset(range(n))
