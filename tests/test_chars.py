"""Character tables, Gauss sums, bilinear sum cross-checks."""
import cmath
import math

import numpy as np
import pytest

from beattysieve.chars import (bilinear_S, bilinear_report, char_table,
                               divisor_concentration, gauss_sum,
                               primitive_count_formula, split_partition_check)
from beattysieve.errors import BudgetError, PreconditionError


def test_table_sizes_and_conductors():
    t12 = char_table(12)
    assert t12.phi == 4 and len(t12.characters) == 4
    principals = [chi for chi in t12.characters if chi.is_principal]
    assert len(principals) == 1
    chi0 = principals[0]
    assert chi0.conductor == 1
    for n in range(24):
        expect = 1.0 if math.gcd(n, 12) == 1 else 0.0
        assert chi0(n) == pytest.approx(expect)

    t15 = char_table(15)
    assert sorted(chi.conductor for chi in t15.characters) \
        == [1, 3, 5, 5, 5, 15, 15, 15]
    assert len(char_table(9).characters) == 6
    with pytest.raises(PreconditionError):
        char_table(0)


def test_induced_primitive_agrees_on_units():
    for q in (12, 15, 16):
        for chi in char_table(q).characters:
            prim = chi.induced_primitive()
            assert prim.q == chi.conductor
            assert prim.is_primitive or prim.is_principal
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1:
                    assert chi(n) == pytest.approx(prim(n), abs=1e-12)


def test_row_orthogonality():
    for q in (8, 12, 15):
        t = char_table(q)
        v = np.array([chi.values() for chi in t.characters])
        gram = v @ v.conj().T
        assert np.allclose(gram, t.phi * np.eye(t.phi), atol=1e-9)


def test_primitive_counts_match_divisor_sum_formula():
    for q in range(1, 101):
        assert char_table(q).primitive_count() == primitive_count_formula(q)


def test_gauss_sum_values():
    chi = next(c for c in char_table(5).characters if not c.is_principal)
    assert chi.is_primitive
    assert abs(gauss_sum(chi, 1)) == pytest.approx(math.sqrt(5), abs=1e-9)
    chi0 = next(c for c in char_table(12).characters if c.is_principal)
    assert gauss_sum(chi0, 0) == pytest.approx(4 + 0j, abs=1e-9)
    one = char_table(1).characters[0]
    assert gauss_sum(one, 3) == pytest.approx(1 + 0j)


def bilinear_type1(q_lo, gamma, a_coeffs, k_lo, k_hi, n_lo, n_hi):
    """Oracle for bilinear_S with b identically 1 on [k_lo, k_hi), evaluated
    the direct way: an inner k loop per m and per character, no residue
    aggregation."""
    total = 0.0
    for q in range(q_lo, 2 * q_lo):
        for chi in char_table(q).characters:
            inner = 0j
            for m, am in a_coeffs.items():
                for k in range(k_lo, k_hi):
                    n = m * k
                    if n_lo <= n < n_hi:
                        inner += am * chi(n) * cmath.exp(2j * cmath.pi * gamma * n)
            total += abs(inner)
    return total


def test_bilinear_routes_agree():
    gamma = 1 / math.sqrt(2)
    ones = {m: 1.0 for m in range(8, 16)}
    direct = bilinear_S(3, gamma, ones, dict(ones), 64, 128)
    assert direct == pytest.approx(33.882547, rel=1e-5)
    type1 = bilinear_type1(3, gamma, ones, 8, 16, 64, 128)
    assert type1 == pytest.approx(direct, rel=1e-9)


def test_bilinear_report_fields():
    gamma = 1 / math.sqrt(2)
    ones = {m: 1.0 for m in range(8, 16)}
    out = bilinear_report(3, gamma, ones, dict(ones), 64, 128)
    assert out["lhs"] == pytest.approx(33.882547, rel=1e-5)
    assert out["ratio"] == pytest.approx(0.002589, rel=1e-3)
    assert out["ratio"] < 1
    assert out["d_value"] == 3
    assert out["a_norm"] == pytest.approx(math.sqrt(8))
    assert out["r"] == 99
    assert out["ratio_type1_i"] == pytest.approx(0.004058, rel=1e-3)
    assert out["type1_i_applies"] is False
    assert out["ratio_type1_ii"] == pytest.approx(0.004525, rel=1e-3)


def test_coefficient_range_guards():
    gamma = 0.5
    with pytest.raises(PreconditionError):
        bilinear_S(3, gamma, {}, {1: 1}, 1, 10)
    with pytest.raises(PreconditionError):
        bilinear_S(3, gamma, {0: 1, 1: 1}, {1: 1}, 1, 10)
    with pytest.raises(PreconditionError):
        bilinear_S(3, gamma, {4: 1, 12: 1}, {1: 1}, 1, 100)
    with pytest.raises(PreconditionError):
        bilinear_S(0, gamma, {1: 1}, {1: 1}, 1, 10)
    with pytest.raises(BudgetError):
        bilinear_S(10**4, gamma, {1: 1}, {1: 1}, 1, 2)


def test_divisor_concentration():
    assert divisor_concentration(3, 13) == 2
    assert divisor_concentration(5, 5) == 0
    assert divisor_concentration(3, 1) == 0


def test_split_partition_counting():
    assert split_partition_check(100)
    assert split_partition_check(1)
    with pytest.raises(PreconditionError):
        split_partition_check(0)
    with pytest.raises(PreconditionError):
        split_partition_check(1001)
