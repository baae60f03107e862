"""Prime tables and multiplicative-function kernels.

Bulk work runs off a smallest-prime-factor table (numpy); the standalone
functions fall back to trial division so they work without a table.
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

    def smallest_prime_factor(self, n: int) -> int:
        return int(self.spf[n])

    def is_prime(self, n: int) -> bool:
        return n >= 2 and int(self.spf[n]) == n

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] with p ascending."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def primes(self) -> np.ndarray:
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=np.uint32)
            self._primes = np.flatnonzero((self.spf == idx) & (idx >= 2)).astype(np.int64)
        return self._primes


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    if limit > TABLE_LIMIT_CAP:
        raise CapacityError(f"limit {limit} exceeds cap {TABLE_LIMIT_CAP}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve).tolist()


def factorize(n: int, table: FactorTable | None = None) -> list[tuple[int, int]]:
    """Factor n by table lookup when possible, else trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is not None and n <= table.limit:
        return table.factor(n)
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


def mobius(n: int, table: FactorTable | None = None) -> int:
    fac = factorize(n, table)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int, table: FactorTable | None = None) -> int:
    out = n
    for p, _ in factorize(n, table):
        out -= out // p
    return out


def omega(n: int, table: FactorTable | None = None) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n, table))


def tau_k(n: int, k: int, table: FactorTable | None = None) -> int:
    """k-fold divisor function: number of ordered factorizations into k parts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    for _, e in factorize(n, table):
        out *= math.comb(e + k - 1, k - 1)
    return out


def mangoldt(n: int, table: FactorTable | None = None) -> float:
    """log p if n is a prime power p^j, else 0."""
    if n < 2:
        return 0.0
    fac = factorize(n, table)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def rough_psi(n: int, z, table: FactorTable | None = None) -> int:
    """1 if n has no prime factor < z, else 0.  rough_psi(1, z) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for p, _ in factorize(n, table):
        if p < z:
            return 0
    return 1


def squarefree_multiplicative_values(limit: int, g_of_prime) -> np.ndarray:
    """Array v with v[n] = prod_{p | n} g(p) for squarefree n, 0 for non-squarefree.

    v[0] = 0, v[1] = 1.  Linear pass over a smallest-prime-factor table.
    """
    table = FactorTable(limit)
    spf = table.spf
    v = np.zeros(limit + 1, dtype=np.float64)
    if limit >= 1:
        v[1] = 1.0
    gp = {}
    for n in range(2, limit + 1):
        p = int(spf[n])
        m = n // p
        if m % p == 0:
            continue  # not squarefree
        if p not in gp:
            gp[p] = float(g_of_prime(p))
        v[n] = v[m] * gp[p]
    return v
