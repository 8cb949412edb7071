"""Tests for stream derivation: the many-at-a-time seeding of `RoundStreams`
against `stream`, which makes each generator with numpy's own seeding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpriv import rng as fedrng
from fedpriv.rng import RoundStreams, pcg64_states, stream

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _state(words) -> dict:
    s_hi, s_lo, i_hi, i_lo = (int(w) for w in words)
    return {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo}


def _draws(gen: np.random.Generator) -> tuple:
    """The first draws of the calls the simulator makes on its streams."""
    order = np.arange(37)
    gen.shuffle(order)
    return order.tolist(), gen.choice(11, size=5, replace=False).tolist(), gen.normal(size=4)


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example(seeds=EDGE_SEEDS)
@example(seeds=[2**64 - 1 - i for i in range(5)] + [2**32 + i for i in range(-2, 3)])
def test_vectorised_seeding_gives_default_rng_states(seeds):
    words = pcg64_states(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    gen = np.random.default_rng()
    for seed, row in zip(seeds, words):
        fresh = np.random.default_rng(seed)
        assert _state(row) == fresh.bit_generator.state["state"]
        state = {"bit_generator": "PCG64", "state": _state(row), "has_uint32": 0, "uinteger": 0}
        gen.bit_generator.state = state
        got, want = _draws(gen), _draws(fresh)
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


@settings(max_examples=25, deadline=None)
@given(
    master=st.integers(-(2**63), 2**63 - 1),
    label=st.sampled_from(["train", "bandit", "gradnoise"]),
    clients=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True),
    first=st.integers(1, 5),
    rounds=st.integers(1, 6),
)
@example(master=0, label="train", clients=[0], first=1, rounds=1)
def test_round_streams_equal_fresh_generators(master, label, clients, first, rounds):
    table = RoundStreams(master, label, clients, range(first, first + rounds))
    for t in range(first, first + rounds):
        for k in clients:
            gen, fresh = table(k, t), stream(master, label, k, t)
            assert gen.bit_generator.state == fresh.bit_generator.state
            got, want = _draws(gen), _draws(fresh)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


def test_each_client_reuses_one_generator_reset_for_every_round():
    table = RoundStreams(3, "train", [0, 4], range(1, 4))
    gen = table(4, 1)
    gen.normal(size=10)  # a drawn-from state is replaced by the next round's start
    assert table(4, 2) is gen and table(0, 2) is not gen
    assert gen.bit_generator.state == stream(3, "train", 4, 2).bit_generator.state
    # asking again resets the stream to its start
    gen.normal()
    assert table(4, 2).bit_generator.state == stream(3, "train", 4, 2).bit_generator.state


def test_every_state_is_derived_once_at_construction(monkeypatch):
    derived = []
    derive = fedrng.derive_seed

    def counting(master, *labels):
        derived.append(labels)
        return derive(master, *labels)

    monkeypatch.setattr(fedrng, "derive_seed", counting)
    table = RoundStreams(0, "gradnoise", [2, 5], range(3, 8))
    assert derived == [("gradnoise", k, t) for t in range(3, 8) for k in (2, 5)]
    for t in range(3, 8):
        for k in (5, 2):
            table(k, t)
    assert len(derived) == 10


@pytest.mark.parametrize("k, t", [(1, 2), (0, 0), (0, 4)])
def test_a_stream_outside_the_table_is_refused(k, t):
    table = RoundStreams(0, "bandit", [0, 2], range(2, 4))
    with pytest.raises(ValueError, match=f"no 'bandit' stream for client {k} at round {t}"):
        table(k, t)

