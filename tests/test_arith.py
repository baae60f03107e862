"""Factor tables and multiplicative functions."""
import math
import random

import numpy as np
import pytest

from beattysieve.arith import (FactorTable, euler_phi, factorize, mobius,
                               primes_upto, tau_k)
from beattysieve.errors import CapacityError


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
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


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
