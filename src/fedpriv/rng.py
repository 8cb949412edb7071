"""Deterministic seed derivation for independent random streams.

Every source of randomness in the simulator draws from a stream derived
from (master_seed, component_label, *ids). Streams are independent of
execution order, so clients can be trained in any interleaving, such as in
lock-step, without changing results.

`stream` makes one stream's generator. `RoundStreams` serves the per-client,
per-round streams of a whole run: it derives all their PCG64 states at
once and resets one reusable generator per client to them, which costs
about a third of making each generator afresh.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *labels: object) -> int:
    """Hash (master, *labels) into a 64-bit stream seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((int(master),) + tuple(labels)).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def stream(master: int, *labels: object) -> np.random.Generator:
    """Fresh PCG64 generator for the stream named by (master, *labels)."""
    return np.random.default_rng(derive_seed(master, *labels))


# numpy's SeedSequence hash constants (bit_generator.pyx) and the high and
# low words of PCG64's multiplier
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


def _mul_high(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product a * b (uint64), from 32-bit halves."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    mid = a1 * b0 + ((a0 * b0) >> s32)
    return a1 * b1 + (mid >> s32) + ((a0 * b1 + (mid & m32)) >> s32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) words of a + b mod 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def pcg64_states(seeds) -> np.ndarray:
    """The PCG64 state of `np.random.default_rng(seed)` for each seed in
    [0, 2**64), all seeds at once: an (N, 4) uint64 array holding the high
    and low words of each state's `state` and `inc`.

    SeedSequence(seed) mixes the seed's two 32-bit words, zero-padded to its
    pool of four, in uint32 arithmetic, and PCG64's seeding step takes two
    128-bit numbers from the mix; both run here on arrays of all seeds.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(s), dtype=np.uint32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        out ^= out >> np.uint32(16)
        return out

    low, high = (s & np.uint64(_M32)).astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): eight words drawn round the pool
    words = np.empty((len(s), 8), dtype="<u4")
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        value ^= value >> np.uint32(16)
        words[:, i] = value
    # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1, and state =
    # (inc + initstate) * MULT + inc, all mod 2**128
    seed_hi, seed_lo, seq_hi, seq_lo = words.view("<u8").astype(np.uint64).T
    one = np.uint64(1)
    inc_hi, inc_lo = (seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one
    a_hi, a_lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    m_hi, m_lo = _PCG64_MULT
    p_hi = _mul_high(a_lo, m_lo) + a_lo * m_hi + a_hi * m_lo
    state_hi, state_lo = _add128(p_hi, a_lo * m_lo, inc_hi, inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


class RoundStreams:
    """The streams (master, label, k, t) of the clients k in `ids` and the
    rounds t in `rounds`: `self(k, t)` is client k's generator, reset to
    the start of `stream(master, label, k, t)`.

    Each client keeps one generator, valid until its next call. The states
    of all the streams are derived at construction, in one vectorised pass,
    and kept as words in one (rounds, ids, 4) array: as 128-bit Python
    integers they would stay scattered through the interpreter's heap after
    the run, and keep its pages resident.
    """

    def __init__(self, master: int, label: str, ids, rounds: range):
        self.label, self.rounds = label, rounds
        ids = list(ids)
        self._position = {k: i for i, k in enumerate(ids)}
        seeds = [derive_seed(master, label, k, t) for t in rounds for k in ids]
        self._states = pcg64_states(seeds).reshape(len(rounds), len(ids), 4)
        self._generators: dict[int, np.random.Generator] = {}

    def __call__(self, k: int, round_t: int) -> np.random.Generator:
        position = self._position.get(k)
        if position is None or round_t not in self.rounds:
            raise ValueError(f"no {self.label!r} stream for client {k} at round {round_t}")
        s_hi, s_lo, i_hi, i_lo = self._states[self.rounds.index(round_t), position].tolist()
        gen = self._generators.get(k)
        if gen is None:
            gen = self._generators[k] = np.random.default_rng(0)
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen
