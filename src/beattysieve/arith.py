"""Prime tables and multiplicative-function kernels.

Bulk work runs off a smallest-prime-factor table (numpy); the standalone
multiplicative functions factor by trial division, which suits the small
arguments (moduli, support indices) they are called on.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

# Hard cap on sieve size; a table of this size is ~400 MB.
TABLE_LIMIT_CAP = 10**8


class FactorTable:
    """Smallest-prime-factor table for all n <= limit."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if limit > TABLE_LIMIT_CAP:
            raise CapacityError(f"sieve limit {limit} exceeds cap {TABLE_LIMIT_CAP}")
        self.limit = limit
        spf = np.zeros(limit + 1, dtype=np.uint32)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                block = spf[p * p:: p]
                block[block == 0] = p
        idx = np.arange(limit + 1, dtype=np.uint32)
        rest = (spf == 0) & (idx >= 2)
        spf[rest] = idx[rest]
        self.spf = spf
        self._primes = None

    def is_prime(self, n: int) -> bool:
        return n >= 2 and int(self.spf[n]) == n

    def prime_mask(self, ns: np.ndarray) -> np.ndarray:
        """Boolean array: is_prime(n) for each n of an int64 array."""
        return (ns >= 2) & (self.spf[ns] == ns)

    def primes(self) -> np.ndarray:
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=np.uint32)
            self._primes = np.flatnonzero((self.spf == idx) & (idx >= 2)).astype(np.int64)
        return self._primes


def prime_array(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending, as int64."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > TABLE_LIMIT_CAP:
        raise CapacityError(f"limit {limit} exceeds cap {TABLE_LIMIT_CAP}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    return prime_array(limit).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n by trial division; bulk work reads FactorTable.spf instead."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def tau_k(n: int, k: int) -> int:
    """k-fold divisor function: number of ordered factorizations into k parts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    for _, e in factorize(n):
        out *= math.comb(e + k - 1, k - 1)
    return out
