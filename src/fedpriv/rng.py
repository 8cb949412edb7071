"""Deterministic seed derivation for independent random streams.

Every source of randomness in the simulator draws from a stream derived
from (master_seed, component_label, *ids). Streams are independent of
execution order, so clients can be trained in any interleaving, such as in
lock-step, without changing results.
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
