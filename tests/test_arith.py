"""Factor tables and multiplicative functions."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beattysieve import arith
from beattysieve.arith import (FactorTable, common_denominator, euler_phi,
                               factorize, int_root, least_hit, mobius,
                               primes_in, tau_k, to_fraction)
from beattysieve.errors import CapacityError, PreconditionError


def test_table_rejects_tiny_and_oversized_limits():
    with pytest.raises(ValueError):
        FactorTable(1)
    with pytest.raises(CapacityError):
        FactorTable(10**8 + 1)


def test_table_lookups(table):
    assert table.spf[91] == 7
    assert table.is_prime(2)
    assert table.is_prime(99991)
    assert not table.is_prime(99993)
    assert not table.is_prime(1)


def test_prime_array(table):
    primes = table.primes()
    assert primes.dtype == np.int64
    assert primes[:5].tolist() == [2, 3, 5, 7, 11]
    assert primes.size == 17984
    assert primes_in(0, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(10**6, 10**6 + 40).tolist() == [1000003, 1000033, 1000037,
                                                      1000039]


def test_primes_in_refuses_a_window_over_the_cap(monkeypatch):
    monkeypatch.setattr(arith, "TABLE_LIMIT_CAP", 100)
    assert primes_in(1000, 1100).size == 16
    with pytest.raises(CapacityError):
        primes_in(1000, 1101)


def _trial_division_spf(limit: int) -> np.ndarray:
    """Smallest prime factor of every n <= limit by trial division, 0 for
    n < 2."""
    out = np.zeros(limit + 1, dtype=np.int64)
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n and n % d:
            d += 1
        out[n] = d if d * d <= n else n
    return out


def test_sieves_match_trial_division():
    small = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
    squares = [p * p + s for p in small for s in (-1, 0, 1)]
    limits = list(range(2, 2001)) + squares
    oracle = _trial_division_spf(max(limits) + 1000)
    idx = np.arange(len(oracle))
    is_prime = (oracle == idx) & (idx >= 2)
    for limit in limits:
        table = FactorTable(limit)
        assert np.array_equal(table.spf, oracle[:limit + 1]), limit
        assert np.array_equal(table.primes(), np.flatnonzero(is_prime[:limit + 1]))
    # windows [lo, hi): every one up to 300, and every one with an end at
    # p^2 - 1, p^2 or p^2 + 1, where a base prime starts or stops striking
    windows = [(lo, hi) for hi in range(301) for lo in range(hi + 1)]
    windows += [(0, s) for s in squares]
    windows += [w for s in squares for step in (1, 2, 3, 50, 1000)
                for w in ((s, s + step), (max(0, s - step), s))]
    for lo, hi in windows:
        got = primes_in(lo, hi)
        assert got.dtype == np.int64, (lo, hi)
        assert np.array_equal(got, lo + np.flatnonzero(is_prime[lo:hi])), (lo, hi)
    # random windows above 10^6, against trial division by the primes up
    # to sqrt(10^7 + 1000)
    divisors = [p for p in range(2, 3200) if all(p % d for d in range(2, p))]
    rng = random.Random(2024)
    for _ in range(60):
        lo = rng.randrange(10**6, 10**7)
        hi = lo + rng.randrange(1000)
        expect = [n for n in range(lo, hi)
                  if all(n % p for p in divisors if p * p <= n)]
        assert primes_in(lo, hi).tolist() == expect, (lo, hi)
    for lo, hi in ((5, 5), (9, 3), (-7, 2), (10**9, 10**9 - 1)):
        got = primes_in(lo, hi)
        assert got.dtype == np.int64 and got.size == 0, (lo, hi)


def _is_int_root(r: int, n: int, k: int) -> bool:
    return r >= 0 and r**k <= n < (r + 1) ** k


def test_int_root_matches_its_definition():
    for k in range(1, 9):
        for n in range(3000):
            assert _is_int_root(int_root(n, k), n, k), (n, k)
        for m in range(400):
            for n in (m**k - 1, m**k, m**k + 1):
                if n >= 0:
                    assert _is_int_root(int_root(n, k), n, k), (n, k)
    rng = random.Random(11)
    for _ in range(200):
        n = rng.getrandbits(rng.randrange(1100, 1400)) | 1 << 1100
        k = rng.randrange(1, 30)
        assert _is_int_root(int_root(n, k), n, k), (n, k)
        r = int_root(n, k)
        assert int_root(r**k, k) == r and int_root(r**k - 1, k) == r - 1
    for n, k in ((-1, 2), (5, 0), (5, -3)):
        with pytest.raises(PreconditionError):
            int_root(n, k)


def test_factorize_falls_back_past_table_limit():
    assert factorize(600851475143) == [(71, 1), (839, 1), (1471, 1),
                                       (6857, 1)]
    assert factorize(2**18) == [(2, 18)]
    with pytest.raises(ValueError):
        factorize(0)


def test_mobius_small_values():
    expected = {1: 1, 2: -1, 4: 0, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert mobius(n) == mu


def test_mobius_divisor_sums_detect_one():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 5000)
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_phi_divisor_sums_recover_n():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(1, 3000)
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_tau_k_on_prime_powers_and_divisors():
    assert tau_k(12, 2) == 6
    assert tau_k(8, 3) == 10      # C(3 + 2, 2) for 2^3
    assert tau_k(1, 5) == 1
    assert tau_k(97, 4) == 4
    assert tau_k(10, 1) == 1
    with pytest.raises(ValueError):
        tau_k(10, 0)


def test_tau_k_is_multiplicative():
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 400)
        n = rng.randrange(1, 400)
        if math.gcd(m, n) != 1:
            continue
        k = rng.randrange(1, 6)
        assert tau_k(m * n, k) == tau_k(m, k) * tau_k(n, k)
        checked += 1


def test_to_fraction_is_exact_for_every_input_kind():
    big = 2**62 + 1   # not a float64 value
    for x in (big, np.int64(big), Fraction(big, 3), Fraction(np.int64(big)),
              Fraction(np.int64(big), np.int64(3))):
        got = to_fraction(x)
        assert got == Fraction(x)
        assert type(got.numerator) is int and type(got.denominator) is int
    assert to_fraction(np.int64(big)) * 2 == 2 * big   # no int64 wraparound
    assert to_fraction(Fraction(np.int64(big))) * 2 == 2 * big
    assert to_fraction(0.1) == Fraction(3602879701896397, 2**55)
    assert to_fraction(np.float32(0.5)) == Fraction(1, 2)
    assert to_fraction("0.1") == to_fraction(0.1)   # read through float
    exact = Fraction(big, 3)
    assert to_fraction(exact) is exact              # already over ints


def test_common_denominator_puts_pairs_over_their_lcm():
    assert common_denominator([]) == ([], 1)
    assert common_denominator(iter([])) == ([], 1)
    assert common_denominator([(-3, 4)]) == ([-3], 4)
    assert common_denominator([(1, 3), (2, 5), (-7, 2)]) == ([10, 12, -105], 30)
    assert common_denominator([(1, 6), (1, 4), (5, 6), (0, 1)]) == ([2, 3, 10, 0], 12)
    rng = random.Random(19)
    for _ in range(200):
        fracs = [Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**6))
                 for _ in range(rng.randrange(1, 8))]
        nums, den = common_denominator(f.as_integer_ratio() for f in fracs)
        assert den == math.lcm(*(f.denominator for f in fracs))
        assert [Fraction(a, den) for a in nums] == fracs


def _first_hit_by_scan(a, b, m, lo, hi):
    """The least x in one full period [0, m) with (a*x + b) mod m in
    [lo, hi]; past it the orbit repeats, so None means no x at all."""
    return next((x for x in range(m) if lo <= (a * x + b) % m <= hi), None)


@settings(max_examples=500, deadline=None)
@given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000),
       m=st.integers(1, 500), lo=st.integers(0, 499), hi=st.integers(-1, 499))
@example(a=0, b=3, m=10, lo=4, hi=9)       # a fixed orbit off the arc
@example(a=6, b=1, m=12, lo=2, hi=5)       # gcd 6: only 1 and 7 are reached
@example(a=-1, b=0, m=500, lo=1, hi=1)     # the hit is the period's last x
@example(a=7, b=2, m=9, lo=4, hi=3)        # an empty arc
def test_least_hit_matches_a_scan_over_one_period(a, b, m, lo, hi):
    lo, hi = lo % m, min(hi, m - 1)
    assert least_hit(a, b, m, lo, hi) == _first_hit_by_scan(a, b, m, lo, hi)


def test_least_hit_at_a_thousand_bit_modulus():
    rng = random.Random(36)
    m = rng.getrandbits(1000) | 1 << 1000
    for _ in range(20):
        a, b = rng.randrange(-m, m), rng.randrange(-m, m)
        lo = rng.randrange(m - 2**40)
        hi = lo + rng.randrange(2**40)
        x = least_hit(a, b, m, lo, hi)
        assert 0 <= x and lo <= (a * x + b) % m <= hi
    # answers known in closed form: -x mod m first hits 1 at x = m - 1, and
    # the multiples of 2g mod 2m never reach the odd residues
    assert least_hit(-1, 0, m, 1, 1) == m - 1
    g = rng.getrandbits(900) | 1
    assert least_hit(2 * g, 0, 2 * m, 1, 1) is None


def test_least_hit_preconditions():
    for lo, hi in ((-1, 3), (10, 10), (0, 10)):
        with pytest.raises(PreconditionError):
            least_hit(3, 0, 10, lo, hi)
