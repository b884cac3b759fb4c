"""Bloom filters for SSTable point lookups.

Every table carries a bloom filter so negative probes usually skip the
flash read -- the standard LSM read-path optimization. Double hashing
(Kirsch-Mitzenmacher): two base hashes from one blake2b digest combine as
``h1 + i*h2`` to derive the k probe positions. A table's filter is built
once, eagerly, in a single numpy pass over all of its keys.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

import numpy as np


def _digest(key: Any) -> bytes:
    """16-byte blake2b digest: h1 is the low 8 bytes, h2 the high 8."""
    return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()


class BloomFilter:
    """A fixed-size bloom filter.

    Parameters
    ----------
    expected_items:
        Sizing target; the bit array and hash count are derived for the
        requested false-positive rate at this load.
    fp_rate:
        Target false-positive probability (default 1%, RocksDB's usual
        10-bits-per-key territory).

    Bit ``p`` of the filter is bit ``p & 7`` of byte ``bits[p >> 3]``.
    """

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items < 1:
            raise ValueError("expected_items must be >= 1")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        self.expected_items = expected_items
        self.fp_rate = fp_rate
        # Optimal sizing: m = -n ln(p) / (ln 2)^2, k = (m/n) ln 2.
        bits = max(int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)), 8)
        self.num_bits = bits
        self.num_hashes = max(int(round(bits / expected_items * math.log(2))), 1)
        self.bits = bytes((bits + 7) // 8)

    def might_contain(self, key: Any) -> bool:
        """False means definitely absent; True means probably present."""
        digest = _digest(key)
        m = self.num_bits
        pos = int.from_bytes(digest[:8], "little") % m
        step = (int.from_bytes(digest[8:], "little") | 1) % m  # odd h2
        bits = self.bits
        for _ in range(self.num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            pos = (pos + step) % m
        return True

    @classmethod
    def build(cls, keys: list[Any], fp_rate: float = 0.01) -> "BloomFilter":
        """Construct a filter sized for ``keys`` with all of them set.

        Probe ``i`` of a key lands on ``(h1 % m + i * (h2 % m)) % m``, which
        equals ``(h1 + i * h2) % m`` and stays exact in uint64 while
        ``k * m < 2**64``.
        """
        bloom = cls(expected_items=max(len(keys), 1), fp_rate=fp_rate)
        m, k = bloom.num_bits, bloom.num_hashes
        assert k * m < 1 << 64, "probe arithmetic would overflow uint64"
        hashes = np.frombuffer(
            b"".join(map(_digest, keys)), dtype="<u8"
        ).reshape(-1, 2)
        m64 = np.uint64(m)
        start = hashes[:, 0] % m64
        step = (hashes[:, 1] | np.uint64(1)) % m64
        positions = (start[:, None] + np.arange(k, dtype=np.uint64) * step[:, None]) % m64
        flags = np.zeros(len(bloom.bits) * 8, dtype=bool)
        flags[positions.ravel()] = True
        bloom.bits = np.packbits(flags, bitorder="little").tobytes()
        return bloom

    @property
    def size_bytes(self) -> int:
        return len(self.bits)


__all__ = ["BloomFilter"]
