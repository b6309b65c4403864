"""A Bloom filter with the no-false-negative guarantee Prob-Drop requires.

The paper (§5.1.2, Appendix C) stores each dropped vertex/timestamp pair as
an 8-byte key (vertex-id and iteration concatenated with binary operations)
in a Bloom filter (they use lemire/bloofi; the container has no network, so
this is our own implementation over a numpy bit array).

Properties relied on by :mod:`repro.core.dropping`:

* ``contains`` never returns ``False`` for an inserted key (no false
  negatives) — a false negative would silently corrupt reassembled states;
* false positives only cause spurious recomputation (correct but wasted);
* the structure's size is fixed at construction: ``size_bytes`` does not
  grow with insertions — the scalability advantage over Det-Drop.
"""
from __future__ import annotations

import math

import numpy as np


# 64-bit mix (splitmix64 finalizer) — cheap, well-distributed, dependency-free.
def _mix(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


def encode_vt(vertex: np.ndarray | int, iteration: np.ndarray | int, qid: np.ndarray | int = 0) -> np.ndarray:
    """Pack (qid, vertex, iteration) into one 64-bit key.

    Mirrors Appendix C: "constructed by concatenating vertex-id and
    iteration number together using binary operations". We reserve 16 bits
    for the query id, 32 for the vertex and 16 for the iteration, which
    covers every scale this reproduction runs at. A field outside its width
    would alias another key, so it raises ``ValueError``.
    """
    fields = [
        (np.asarray(qid), 16, "query id"),
        (np.asarray(vertex), 32, "vertex"),
        (np.asarray(iteration), 16, "iteration"),
    ]
    for a, bits, name in fields:
        if a.size and (a.min() < 0 or a.max() >= 1 << bits):
            raise ValueError(f"{name} outside [0, 2^{bits}): {a.min()}..{a.max()}")
    q, v, i = (a.astype(np.uint64) for a, _, _ in fields)
    return (q << np.uint64(48)) | (v << np.uint64(16)) | i


class BloomFilter:
    """Fixed-size Bloom filter over 64-bit keys.

    ``capacity`` and ``fp_rate`` size the bit array once; ``size_bytes`` is
    the memory-accounting figure used by :mod:`repro.core.memory`.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        capacity = max(1, int(capacity))
        if not (0.0 < fp_rate < 1.0):
            raise ValueError("fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        n_bits = max(64, int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))))
        self.n_bits = n_bits
        self.n_hashes = max(1, int(round(n_bits / capacity * math.log(2))))
        self._bits = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
        self.n_inserted = 0

    # Derive k indices from one 64-bit mix via double hashing:
    # h_i = h1 + i*h2 (standard Kirsch–Mitzenmacher construction).
    def _indices(self, keys: np.ndarray) -> np.ndarray:
        h = _mix(np.asarray(keys, dtype=np.uint64))
        h1 = h % np.uint64(self.n_bits)
        h2 = (_mix(h ^ np.uint64(0x9E3779B97F4A7C15)) % np.uint64(self.n_bits - 1)) + np.uint64(1)
        i = np.arange(self.n_hashes, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + i * h2[None, :]) % np.uint64(self.n_bits)

    def add(self, keys: np.ndarray | int) -> None:
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        if keys.size == 0:
            return
        idx = self._indices(keys).ravel()
        np.bitwise_or.at(
            self._bits, (idx >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (idx & np.uint64(63)),
        )
        self.n_inserted += int(keys.size)

    def contains(self, keys: np.ndarray | int) -> np.ndarray:
        """Vectorized membership test; returns a bool array."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        idx = self._indices(keys)
        word = self._bits[(idx >> np.uint64(6)).astype(np.int64)]
        bit = (word >> (idx & np.uint64(63))) & np.uint64(1)
        return bit.all(axis=0).astype(bool)

    @property
    def size_bytes(self) -> int:
        """Fixed memory footprint of the bit array (accounting figure)."""
        return self._bits.nbytes
