"""Factor tables and the multiplicative-function toolbox."""
import math
import random

import numpy as np
import pytest

from beattysieve.arith import (FactorTable, euler_phi, factorize, mangoldt,
                               mobius, omega, primes_upto, rough_psi,
                               squarefree_multiplicative_values, tau_k)
from beattysieve.errors import CapacityError


def test_table_rejects_tiny_and_oversized_limits():
    with pytest.raises(ValueError):
        FactorTable(1)
    with pytest.raises(CapacityError):
        FactorTable(10**8 + 1)


def test_table_lookups(table):
    assert table.smallest_prime_factor(91) == 7
    assert table.is_prime(2)
    assert table.is_prime(99991)
    assert not table.is_prime(99993)
    assert not table.is_prime(1)
    assert table.factor(360) == [(2, 3), (3, 2), (5, 1)]
    assert table.factor(1) == []
    with pytest.raises(ValueError):
        table.factor(0)
    with pytest.raises(ValueError):
        table.factor(200_001)


def test_prime_array(table):
    primes = table.primes()
    assert primes.dtype == np.int64
    assert primes[:5].tolist() == [2, 3, 5, 7, 11]
    assert primes.size == 17984
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factorize_falls_back_past_table_limit(table):
    assert factorize(600851475143, table) == [(71, 1), (839, 1), (1471, 1),
                                              (6857, 1)]
    assert factorize(2**18) == [(2, 18)]
    with pytest.raises(ValueError):
        factorize(0, table)


def test_mobius_small_values(table):
    expected = {1: 1, 2: -1, 4: 0, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert mobius(n, table) == mu


def test_mobius_divisor_sums_detect_one(table):
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 5000)
        total = sum(mobius(d, table) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_phi_divisor_sums_recover_n(table):
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(1, 3000)
        assert sum(euler_phi(d, table) for d in range(1, n + 1) if n % d == 0) == n


def test_omega_counts_distinct_prime_factors(table):
    assert omega(360, table) == 3
    assert omega(1, table) == 0
    assert omega(97, table) == 1


def test_tau_k_on_prime_powers_and_divisors(table):
    assert tau_k(12, 2, table) == 6
    assert tau_k(8, 3, table) == 10      # C(3 + 2, 2) for 2^3
    assert tau_k(1, 5, table) == 1
    assert tau_k(97, 4, table) == 4
    assert tau_k(10, 1, table) == 1
    with pytest.raises(ValueError):
        tau_k(10, 0, table)


def test_tau_k_is_multiplicative(table):
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 400)
        n = rng.randrange(1, 400)
        if math.gcd(m, n) != 1:
            continue
        k = rng.randrange(1, 6)
        assert tau_k(m * n, k, table) == tau_k(m, k, table) * tau_k(n, k, table)
        checked += 1


def test_mangoldt_supported_on_prime_powers(table):
    assert mangoldt(8, table) == pytest.approx(math.log(2))
    assert mangoldt(7, table) == pytest.approx(math.log(7))
    assert mangoldt(6, table) == 0.0
    assert mangoldt(1, table) == 0.0


def test_rough_psi_indicator(table):
    assert rough_psi(1, 10, table) == 1
    assert rough_psi(77, 7, table) == 1
    assert rough_psi(77, 8, table) == 0
    # below z = 3 only 1 and the odd numbers survive
    assert sum(rough_psi(n, 3, table) for n in range(1, 1001)) == 500
    with pytest.raises(ValueError):
        rough_psi(0, 3, table)


def test_squarefree_multiplicative_array():
    v = squarefree_multiplicative_values(60, lambda p: 1.0 / p)
    assert v.shape == (61,)
    assert v[1] == 1.0
    assert v[4] == 0.0 and v[12] == 0.0 and v[50] == 0.0
    assert v[6] == pytest.approx(1.0 / 6)
    assert v[30] == pytest.approx(1.0 / 30)
