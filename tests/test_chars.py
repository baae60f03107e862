"""Character tables, Gauss sums, bilinear sum cross-checks."""
import cmath
import math

import numpy as np
import pytest

from beattysieve import chars
from beattysieve.chars import (BILINEAR_OP_BUDGET, DIVISOR_TABLE_BUDGET,
                               CharTable, _pair_count, _window_products,
                               bilinear_S, bilinear_report, char_table,
                               divisor_concentration, gauss_sum,
                               primitive_count_formula, split_partition_check)
from beattysieve.errors import BudgetError, PreconditionError


def _principal(chi):
    return not any(chi.components)


def test_table_sizes_and_conductors():
    t12 = char_table(12)
    assert t12.phi == 4 and len(t12.characters) == 4
    principals = [chi for chi in t12.characters if _principal(chi)]
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
    chi = next(c for c in char_table(5).characters if not _principal(c))
    assert chi.is_primitive
    assert abs(gauss_sum(chi, 1)) == pytest.approx(math.sqrt(5), abs=1e-9)
    chi0 = next(c for c in char_table(12).characters if _principal(c))
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


def bilinear_per_character(q_lo, gamma, a_coeffs, b_coeffs, n_lo, n_hi):
    """Oracle for bilinear_S: the pairs binned by residue in a Python loop,
    then one dense product per character, each value taken from chi(j)."""
    pairs = [(m * k, am * bk * cmath.exp(2j * cmath.pi * gamma * m * k))
             for m, am in a_coeffs.items() for k, bk in b_coeffs.items()
             if am != 0 and bk != 0 and n_lo <= m * k < n_hi]
    total = 0.0
    for q in range(q_lo, 2 * q_lo):
        by_residue = np.zeros(q, dtype=complex)
        for n, w in pairs:
            by_residue[n % q] += w
        for chi in char_table(q).characters:
            values = np.array([chi(j) for j in range(q)])
            total += abs(complex(values @ by_residue))
    return total


# q0 = 1 and 2 reach q = 1, 2 (no cyclic factor); 4, 8, 16, 32 reach 4 and
# 8k, whose 2-part splits as {+-1} x <5>; 9 and 25 reach the odd prime
# powers 9, 11, 13, 25, 27, 29, 49; every window has mixed composites.
@pytest.mark.parametrize("q0", [1, 2, 4, 8, 9, 16, 25, 32])
def test_bilinear_matches_the_per_character_oracle(q0):
    rng = np.random.default_rng(q0)
    def coeffs(lo, hi):
        out = {m: complex(*rng.normal(size=2)) for m in range(lo, hi)}
        for m in rng.choice(list(out), size=len(out) // 4, replace=False):
            out[int(m)] = 0
        return out
    a, b = coeffs(10, 20), coeffs(7, 14)
    gamma = (math.sqrt(5) - 1) / 2
    got = bilinear_S(q0, gamma, a, b, 80, 250)
    assert got == pytest.approx(
        bilinear_per_character(q0, gamma, a, b, 80, 250), rel=1e-12)


def test_unit_dlog_matrix_matches_the_per_unit_oracle():
    for q in range(1, 401):
        table = CharTable(q)
        js, rows = table.unit_dlog_matrix()
        units = [j for j in range(q) if math.gcd(j, q) == 1]
        expect = np.array([table.unit_dlog(j) for j in units], dtype=np.int64)
        assert js.dtype == np.int64 and rows.dtype == np.int64
        assert js.tolist() == units
        assert rows.shape == (len(units), len(table.cyc_orders))
        assert np.array_equal(rows, expect.reshape(rows.shape))


def test_bilinear_budget_refuses_before_any_table(monkeypatch):
    misses = char_table.cache_info().misses
    with pytest.raises(BudgetError) as err:
        bilinear_S(3000, 0.5, {1: 1}, {1: 1}, 1, 2)
    assert err.value.estimate > BILINEAR_OP_BUDGET
    assert char_table.cache_info().misses == misses

    # nor before any pair is formed: 10^6 pairs, all inside the window, over
    # 5000 moduli give the estimate the evaluator gave when it formed them
    def no_pairs(*args):
        raise AssertionError("pairs formed before the budget check")

    monkeypatch.setattr(chars, "_window_products", no_pairs)
    a = {m: 1.0 for m in range(1000, 2000)}
    with pytest.raises(BudgetError) as err:
        bilinear_S(5000, 0.5, a, a, 1, 10**7)
    assert err.value.estimate == 5329249914


def test_pair_count_matches_the_formed_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m0, k0 = (int(x) for x in rng.integers(1, 60, size=2))
        a = {m: float(rng.integers(0, 3)) for m in range(m0, 2 * m0)}
        b = {k: float(rng.integers(0, 3)) for k in range(k0, 2 * k0)}
        n_lo, n_hi = (int(x) for x in rng.integers(-50, 4 * m0 * k0, size=2))
        ns, _ = _window_products(0.25, a, b, n_lo, n_hi)
        assert _pair_count(a, b, n_lo, n_hi) == len(ns)


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


def test_divisor_concentration(monkeypatch):
    assert divisor_concentration(3, 13) == 2
    assert divisor_concentration(5, 5) == 0
    assert divisor_concentration(3, 1) == 0

    # a table over the budget is refused before it is allocated, and the
    # report asks for D before it runs the bilinear sum
    def no_table(*args, **kwargs):
        raise AssertionError("divisor table allocated before the budget check")

    monkeypatch.setattr(chars.np, "zeros", no_table)
    n_hi = DIVISOR_TABLE_BUDGET + 1
    with pytest.raises(BudgetError) as err:
        divisor_concentration(3, n_hi)
    assert err.value.estimate == n_hi
    ones = {m: 1.0 for m in range(3, 6)}
    with pytest.raises(BudgetError) as err:
        bilinear_report(3, 0.7071, ones, dict(ones), 9, 3 * 10**7)
    assert err.value.estimate == 3 * 10**7


def test_split_partition_counting():
    assert split_partition_check(100)
    assert split_partition_check(1)
    with pytest.raises(PreconditionError):
        split_partition_check(0)
    with pytest.raises(PreconditionError):
        split_partition_check(1001)
