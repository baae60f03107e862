"""Prime tables, integer roots, multiplicative functions and the
exact-rational kernel.

primes_in is the one sieve of Eratosthenes: it strikes a window [lo, hi)
alone, with base primes up to sqrt(hi) from itself, so a consumer sieves
just the window it reads.  FactorTable, kept for factoring, stamps the
multiples of those base primes to get a smallest-prime-factor table
(numpy).  int_root is the one exact integer root, used for
the power cutoffs of the Buchstab chains and the n^(3/4) cap of the
Diophantine modulus.  least_hit is the one search for the first point of
an orbit a*x + b mod m on an arc, by Euclid's descent: the shift of
translate_tuple and the arc count of the Liouville demo.  The standalone
multiplicative functions factor by trial division, which suits the small
arguments (moduli, support indices) they are called on.  Every exact entry point of the package reads its
values with to_fraction and puts fractions over one denominator, as ints,
with common_denominator.
"""
from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import CapacityError, PreconditionError

# Hard cap on sieve size (a table's limit, a window's length); a table of
# this size is ~400 MB.
TABLE_LIMIT_CAP = 10**8


class FactorTable:
    """Smallest-prime-factor table for all n <= limit."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if limit > TABLE_LIMIT_CAP:
            raise CapacityError(f"sieve limit {limit} exceeds cap {TABLE_LIMIT_CAP}")
        self.limit = limit
        # every n starts as its own factor; the base primes stamp their
        # multiples from p^2 on, largest first, so the smallest is written last
        spf = np.arange(limit + 1, dtype=np.uint32)
        spf[1] = 0
        for p in primes_in(2, math.isqrt(limit) + 1)[::-1].tolist():
            spf[p * p:: p] = p
        self.spf = spf
        self._primes = None

    def is_prime(self, n: int) -> bool:
        return n >= 2 and int(self.spf[n]) == n

    def primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = primes_in(2, self.limit + 1)
        return self._primes


def primes_in(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p < hi, ascending, as int64.

    One boolean block of the window, struck from max(p^2, lo) on by each
    base prime p <= isqrt(hi - 1); the base primes are this function's
    own on [2, isqrt(hi - 1) + 1).
    """
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    if hi - lo > TABLE_LIMIT_CAP:
        raise CapacityError(f"window [{lo}, {hi}) is longer than the cap "
                            f"{TABLE_LIMIT_CAP}")
    block = np.ones(hi - lo, dtype=bool)
    for p in primes_in(2, math.isqrt(hi - 1) + 1).tolist():
        block[max(p * p, -(-lo // p) * p) - lo:: p] = False
    return np.flatnonzero(block).astype(np.int64) + lo


def int_root(n: int, k: int) -> int:
    """floor(n^(1/k)) on integers only: Newton's method from 2^ceil(bits/k),
    which lies above the root, descends to it and stops there."""
    if n < 0 or k < 1:
        raise PreconditionError("need n >= 0 and k >= 1", n=n, k=k)
    if k == 1 or n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def least_hit(a: int, b: int, m: int, lo: int, hi: int) -> int | None:
    """The least x >= 0 with lo <= (a*x + b) mod m <= hi, for 0 <= lo < m
    and hi < m; None when no x exists, which is then proven, as it is for
    an empty arc (lo > hi).

    Past x = 0 the question is the least x with l <= a*x mod m <= r,
    l = (lo - b) mod m >= 1, r = (hi - b) mod m: the arc cannot wrap past
    0, since x = 0 missed it.  If a multiple of a lies in [l, r], the
    first, ceil(l/a), answers.  Otherwise [l, r] sits in one gap between
    multiples of a, a*x - m*y lands in it exactly when (-m*y) mod a lies
    in [l mod a, r mod a], that is (m*y) mod a in [a - r mod a, a - l mod a],
    and the least such y gives x = ceil((l + m*y)/a).  The same question
    for (m mod a, a) is Euclid's step, so there are O(log m) of them.
    """
    if not (0 <= lo < m and hi < m):
        raise PreconditionError("need 0 <= lo < m and hi < m", lo=lo, hi=hi, m=m)
    if lo > hi:
        return None
    if lo <= b % m <= hi:
        return 0
    a, l, r = a % m, (lo - b) % m, (hi - b) % m
    steps = []
    while a:
        x = -(-l // a)
        if a * x <= r:
            break
        steps.append((a, m, l))
        a, m, l, r = m % a, a, a - r % a, a - l % a
    else:
        return None
    for a, m, l in reversed(steps):
        x = -(-(l + m * x) // a)
    return x


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


def to_fraction(x) -> Fraction:
    """A Rational as its exact Fraction, with Python int terms so numpy
    integers cannot wrap around later; anything else as the exact binary
    value of float(x)."""
    if type(x) is Fraction and type(x.numerator) is type(x.denominator) is int:
        return x
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    return Fraction(float(x))


def common_denominator(pairs) -> tuple[list[int], int]:
    """(numerator, denominator) pairs of Python ints as (numerators over
    the lcm of the denominators, that lcm); the lcm of no pairs is 1."""
    pairs = list(pairs)
    den = math.lcm(*{b for _, b in pairs})
    return [a * (den // b) for a, b in pairs], den
