"""Character tables, Gauss sums, bilinear sum cross-checks."""
import cmath
import itertools
import math
import random

import numpy as np
import pytest

from beattysieve import arith, chars
from beattysieve.chars import (BILINEAR_OP_BUDGET, DIVISOR_TABLE_BUDGET,
                               CharTable, _pair_count, _window_products,
                               bilinear_S, bilinear_report, char_table,
                               divisor_concentration, gauss_sum,
                               primitive_count_formula, split_partition_check)
from beattysieve.errors import BudgetError, PreconditionError
from char_oracles import (character_values, conductor, direct_gauss_sum,
                          dlog_tables, primitive_count_by_every_d,
                          scatter_transform, unit_dlog_matrix,
                          window_products_loop)


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
        v = np.array([character_values(chi) for chi in t.characters])
        gram = v @ v.conj().T
        assert np.allclose(gram, t.phi * np.eye(t.phi), atol=1e-9)


def test_primitive_counts_match_divisor_sum_formula():
    for q in range(1, 101):
        assert char_table(q).primitive_count() == primitive_count_formula(q)


def test_primitive_count_formula_matches_the_every_d_sum():
    for q in range(1, 1001):
        assert primitive_count_formula(q) == primitive_count_by_every_d(q)


def _check_tables_against_the_oracles(q):
    table = CharTable(q)
    grid = table.grid()
    assert grid.dtype == np.int64 and grid.shape == (table.cyc_orders or (1,))
    # each unit appears exactly once
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    assert np.array_equal(np.sort(grid, axis=None), units)
    # the cell at t holds the unit whose dlogs are t: the loop-filled dlog
    # tables read t back off every cell, and the generator powers rebuild
    # the unit from t (every cell up to 4096, a seeded sample above)
    tables = [(f, t) for f in table.factors for t in dlog_tables(f)]
    assert len(tables) == len(table.cyc_orders)
    for (f, dlog), coords in zip(tables, np.indices(table.cyc_orders)):
        assert np.array_equal(dlog[grid % f.modulus], coords)
    cells = range(table.phi)
    if table.phi > 4096:
        cells = random.Random(q).sample(cells, 4096)
    for cell in cells:
        t = tuple(int(d) for d in np.unravel_index(cell, grid.shape))
        pos = 0
        for f in table.factors:
            width = len(f.orders)
            assert _unit_from_dlogs(f, t[pos:pos + width]) \
                == grid[t] % f.modulus
            pos += width
    # character i has the mixed-radix digits of i, the first factor fastest
    digits = itertools.product(*(range(n) for n in reversed(table.cyc_orders)))
    conductors = [conductor(table, c[::-1]) for c in digits]
    assert table.conductors().tolist() == conductors
    assert table.primitive_count() == conductors.count(q)
    assert [chi.conductor for chi in itertools.islice(table.characters, 50)] \
        == conductors[:50]


def test_small_tables_match_the_one_at_a_time_oracles():
    for q in range(1, 401):
        _check_tables_against_the_oracles(q)


# the prime powers 2^19, 3^12, 5^8 fill the largest 2-part, 3-part and
# 5-part tables a modulus under the cap has; 720720 has six factors and
# 999983 the largest cyclic group
@pytest.mark.parametrize("q", [2**19, 3**12, 5**8, 720720, 999983])
def test_large_tables_match_the_one_at_a_time_oracles(q):
    _check_tables_against_the_oracles(q)


def test_gauss_sum_values():
    chi = next(c for c in char_table(5).characters if not _principal(c))
    assert chi.is_primitive
    assert abs(gauss_sum(chi, 1)) == pytest.approx(math.sqrt(5), abs=1e-9)
    chi0 = next(c for c in char_table(12).characters if _principal(c))
    assert gauss_sum(chi0, 0) == pytest.approx(4 + 0j, abs=1e-9)
    one = char_table(1).characters[0]
    assert gauss_sum(one, 3) == pytest.approx(1 + 0j)


def test_gauss_sums_match_the_direct_sum():
    rng = np.random.default_rng(11)
    for q in range(1, 151):
        ns = {0, 1, 2, q - 1} | {q // p for p, _ in arith.factorize(q)}
        coprime = [n for n in range(q) if math.gcd(n, q) == 1]
        ns.add(int(rng.choice(coprime)))
        for chi in char_table(q).characters:
            for n in ns:
                got = gauss_sum(chi, n)
                assert abs(got - direct_gauss_sum(chi, n)) < 1e-9
                if chi.is_primitive and math.gcd(n, q) == 1:
                    assert abs(abs(got) - math.sqrt(q)) < 1e-9


def test_gauss_sums_of_a_table_take_one_transform(monkeypatch):
    calls = []
    transform = CharTable._transform

    def spy(self, values):
        calls.append(self.q)
        return transform(self, values)

    monkeypatch.setattr(CharTable, "_transform", spy)
    table = CharTable(720)
    for chi in table.characters:
        for n in (1, 7, 719, 7 * 11 * 13):
            gauss_sum(chi, n)
    assert calls == [720]
    # n not prime to q takes a transform of its own every time, not kept
    chi = table.characters[5]
    gauss_sum(chi, 6)
    gauss_sum(chi, 6)
    assert calls == [720] * 3


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


def _unit_from_dlogs(factor, dlogs: list) -> int:
    """The unit mod p^e with these dlogs, as a product of generator
    powers: g^t with g the primitive root of p, 3^t mod 4, or
    (-1)^a 5^b mod 2^e."""
    m = factor.modulus
    if factor.p != 2:
        return pow(chars._primitive_root(factor.p), dlogs[0], m)
    if factor.e == 1:
        return 1
    if factor.e == 2:
        return pow(3, dlogs[0], m)
    a, b = dlogs
    return (-1) ** a * pow(5, b, m) % m


def test_unit_dlog_matrix_matches_the_per_unit_oracle():
    for q in range(1, 401):
        table = CharTable(q)
        js, rows = unit_dlog_matrix(table)
        units = [j for j in range(q) if math.gcd(j, q) == 1]
        assert js.dtype == np.int64 and rows.dtype == np.int64
        assert js.tolist() == units
        assert rows.shape == (len(units), len(table.cyc_orders))
        for j, row in zip(units, rows.tolist()):
            pos = 0
            for f in table.factors:
                width = len(f.orders)
                dlogs = row[pos:pos + width]
                assert all(0 <= d < n for d, n in zip(dlogs, f.orders))
                assert _unit_from_dlogs(f, dlogs) == j % f.modulus
                pos += width


def test_transform_equals_the_scatter_route_bitwise():
    # fftn(values[grid]) gets the array the dlog scatter built, so every
    # float of every sum is unchanged
    rng = np.random.default_rng(34)
    for q in range(1, 401):
        table = CharTable(q)
        bins = rng.normal(size=q) + 1j * rng.normal(size=q)
        got, expect = table._transform(bins), scatter_transform(table, bins)
        assert got.shape == expect.shape
        assert got.view(np.float64).tobytes() == expect.view(np.float64).tobytes()


@pytest.mark.parametrize("q", [1, 2, 4, 8, 9, 12, 16, 45, 97, 120, 200, 720])
def test_position_inverts_the_grid_and_iteration_indexes(q):
    table = CharTable(q)
    flat = table.grid().ravel()
    position = table.position()
    assert position.dtype == np.int64 and len(position) == q
    assert position[flat].tolist() == list(range(table.phi))
    assert np.all(np.delete(position, flat) == -1)
    # iteration gives characters[i] in index order, as Python ints
    chis = list(table.characters)
    assert [(chi.index, chi.components) for chi in chis] == \
        [(table.characters[i].index, table.characters[i].components)
         for i in range(table.phi)]
    assert all(type(c) is int for chi in chis for c in chi.components)


@pytest.mark.parametrize("q", [1, 2, 4, 8, 9, 12, 16, 45, 97, 120, 200])
def test_character_exponents_are_periodic_and_multiplicative(q):
    table = CharTable(q)
    big_l = table.group_exponent
    units = [j for j in range(q) if math.gcd(j, q) == 1]
    for chi in itertools.islice(table.characters, 12):
        for j in range(-3, q + 3):
            t = chi.exponent(j)
            if math.gcd(j, q) != 1:
                assert t is None and chi(j) == 0j
                continue
            assert 0 <= t < big_l and t == chi.exponent(j + q)
        for j, k in itertools.product(units[:8], units[-8:]):
            assert chi.exponent(j * k) == \
                (chi.exponent(j) + chi.exponent(k)) % big_l


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


@pytest.mark.parametrize("block", [chars.OUTER_BLOCK, 7], ids=["one-block", "7-cells"])
def test_window_products_match_the_pair_loop_bitwise(block, monkeypatch):
    # small-integer, complex, float and zero coefficients, gamma of either
    # sign; a block of 7 cells splits every outer product into many blocks
    monkeypatch.setattr(chars, "OUTER_BLOCK", block)
    rng = np.random.default_rng(8)
    for trial in range(150):
        m0, k0 = (int(x) for x in rng.integers(1, 60, size=2))
        def value():
            if trial % 3 == 0:
                return float(rng.integers(0, 3))
            if rng.random() < 0.2:
                return 0
            return (complex(*rng.normal(size=2)) if trial % 3 == 1
                    else float(rng.normal()))
        a = {m: value() for m in range(m0, 2 * m0)}
        b = {k: value() for k in range(k0, 2 * k0)}
        n_lo, n_hi = (int(x) for x in rng.integers(-50, 4 * m0 * k0, size=2))
        gamma = 3 * float(rng.normal())
        ns, ws = _window_products(gamma, a, b, n_lo, n_hi)
        expect_ns, expect_ws = window_products_loop(gamma, a, b, n_lo, n_hi)
        assert ns.dtype == np.int64 and ns.tolist() == expect_ns
        assert ws.tobytes() == expect_ws.tobytes()


def test_window_products_never_wrap_int64():
    # (2^32 + i)(2^32 + j) wraps in int64 to (i + j) 2^32 + i j, inside
    # [0, 2^40): no product may land there
    keys = {2**32 + i: 1.0 for i in range(3)}
    ns, ws = _window_products(0.25, keys, dict(keys), 0, 2**40)
    assert len(ns) == len(ws) == 0 == _pair_count(keys, keys, 0, 2**40)
    # a window above 2^63 keeps every product exact, as Python ints
    lo, hi = 2**64, 2**64 + 2**40
    ns, ws = _window_products(0.25, keys, dict(keys), lo, hi)
    assert ns.dtype == object
    assert ns.tolist() == [m * k for m in keys for k in keys]
    assert _pair_count(keys, keys, lo, hi) == len(ns) == 9
    expect_ns, expect_ws = window_products_loop(0.25, keys, keys, lo, hi)
    assert ns.tolist() == expect_ns and ws.tobytes() == expect_ws.tobytes()
    # products past 2^63 under a window below it: int64 out, nothing wrapped
    ns, _ = _window_products(0.25, {2**30: 1.0, 2**31: 1.0}, {2**32: 1.0},
                             0, 2**63)
    assert ns.dtype == np.int64 and ns.tolist() == [2**62]


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
