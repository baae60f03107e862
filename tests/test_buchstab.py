"""Exponent classification, chain identity, region geometry, integrals."""
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from beattysieve import arith, buchstab
from beattysieve.buchstab import (_BLOCK, _CONTEXT, _FACTOR_WIDTH,
                                  _GaussRule, _block_terms, _chain_cutoffs,
                                  _d_integral, _inner_integral,
                                  _legendre_rule, _li2, _ln,
                                  _triangle_integral, _window_terms,
                                  decomposition_check, region_integrals)
from beattysieve.errors import (BudgetError, CapacityError, PreconditionError)

# The continuum side of the chain decomposition, decided exactly on
# Fractions: the oracle for the integer predicates good_prime_pair and
# pair_in_d, and for the two triangles region_integrals integrates over.

GOOD_WINDOWS = ((Fraction(2, 7), Fraction(3, 7)), (Fraction(4, 7), Fraction(5, 7)))

# Triangles covering the bad region D, as (alpha1, alpha2) vertices.
# The shallow one has alpha1 <= 2/7, the steep one alpha1 >= 3/7.
TRIANGLE_SHALLOW = ((Fraction(5, 21), Fraction(5, 21)),
                    (Fraction(2, 7), Fraction(3, 14)),
                    (Fraction(2, 7), Fraction(2, 7)))
TRIANGLE_STEEP = ((Fraction(1, 2), Fraction(3, 14)),
                  (Fraction(3, 7), Fraction(2, 7)),
                  (Fraction(1, 2), Fraction(1, 4)))


@dataclass(frozen=True)
class ClassifyResult:
    in_ej: bool
    good: bool
    witness: tuple | None  # indices of a good subsum, if any
    in_d: bool


def classify(alphas) -> ClassifyResult:
    """Cone membership, good-subsum search, and bad-region test.

    Input must be sorted non-increasing (at most 4 entries).  Every entry
    is converted with Fraction and decided exactly, so a float stands for
    its binary value: the float nearest 2/7 lies below 2/7.
    """
    vals = [Fraction(x) for x in alphas]
    if not 1 <= len(vals) <= 4:
        raise PreconditionError("need 1 to 4 exponents", count=len(vals))
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise PreconditionError("exponents must be sorted non-increasing",
                                alphas=tuple(float(x) for x in vals))

    j = len(vals)
    in_ej = (Fraction(1, 7) <= vals[-1] and vals[0] <= Fraction(1, 2)
             and all(vals[i] > vals[i + 1] for i in range(j - 1))
             and sum(vals[:-1]) + 2 * vals[-1] <= 1)

    witness = None
    for mask in range(1, 1 << j):
        subsum = sum(vals[i] for i in range(j) if mask >> i & 1)
        if any(lo <= subsum <= hi for lo, hi in GOOD_WINDOWS):
            witness = tuple(i for i in range(j) if mask >> i & 1)
            break
    good = witness is not None

    in_d = (j == 2 and in_ej and not good
            and vals[0] + 2 * vals[1] > Fraction(5, 7))
    return ClassifyResult(in_ej, good, witness, in_d)


def triangle_contains(vertices, point) -> bool:
    """Closed-triangle membership by exact barycentric signs.

    Works exactly for rational inputs (floats are converted exactly)."""
    (x1, y1), (x2, y2), (x3, y3) = [(Fraction(x), Fraction(y))
                                    for x, y in vertices]
    px, py = Fraction(point[0]), Fraction(point[1])
    d1 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    d2 = (x3 - x2) * (py - y2) - (y3 - y2) * (px - x2)
    d3 = (x1 - x3) * (py - y3) - (y1 - y3) * (px - x3)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


# The integer side one n at a time, with the pair tests as exact powers of
# Python integers: the oracle for the blocked kernel _block_terms.

def table_factor(table: arith.FactorTable, n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n with p ascending, by lookups
    in the table's smallest-prime-factor array."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    out = []
    while n > 1:
        p = int(table.spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def test_table_factor(table):
    assert table_factor(table, 360) == [(2, 3), (3, 2), (5, 1)]
    assert table_factor(table, 1) == []
    with pytest.raises(ValueError):
        table_factor(table, 0)
    with pytest.raises(ValueError):
        table_factor(table, 200_001)


def good_prime_pair(p1: int, p2: int, two_n: int) -> bool:
    """Some subsum of the exponent pair lands in a good window.

    alpha(p) = log p / log 2N, so "subsum in [2/7, 3/7]" reads
    (2N)^2 <= (prod p)^7 <= (2N)^3, and similarly with powers 4, 5.
    """
    t2, t3, t4, t5 = two_n**2, two_n**3, two_n**4, two_n**5
    for prod in (p1, p2, p1 * p2):
        s7 = prod**7
        if t2 <= s7 <= t3 or t4 <= s7 <= t5:
            return True
    return False


def pair_in_d(p1: int, p2: int, two_n: int) -> bool:
    """Exact integer version of the bad-region test for p1 > p2."""
    z1 = _chain_cutoffs(two_n)[0]
    if not (p2 >= z1 and p2 < p1 and p1 * p1 <= two_n):
        return False
    if p1 * p2 * p2 > two_n:
        return False
    if good_prime_pair(p1, p2, two_n):
        return False
    return (p1 * p2 * p2) ** 7 > two_n**5


@dataclass(frozen=True)
class DecompositionTerms:
    n: int
    x: int        # 1 iff n is prime
    d_sum: int    # sum of psi(n3, p2) over chains whose pair lies in D
    rho1: int
    rho2: int
    rho3: int
    rho4: int
    rho5: int

    @property
    def identity_holds(self) -> bool:
        return (self.x - self.d_sum
                == self.rho1 + self.rho2 + self.rho3 - self.rho4 - self.rho5)


def decomposition_terms(n: int, n_base: int,
                        table: arith.FactorTable) -> DecompositionTerms:
    """All five chain counts plus the D-indexed sum for one n in [N, 2N).

    Chains are strictly decreasing prime divisors p1 > p2 > ..., each at
    least (2N)^(1/7), with p1 below (2N)^(1/2); chain counts weigh the
    cofactor by roughness (psi = no prime factor below the stated cutoff).
    A chain whose leading pair falls in D stops there and feeds d_sum.
    Every factorization is a lookup in table, which must reach n.
    """
    two_n = 2 * n_base
    if not n_base <= n < two_n:
        raise PreconditionError("n must lie in [N, 2N)", n=n, n_base=n_base)
    if n > table.limit:
        raise PreconditionError("factor table does not reach n", n=n,
                                limit=table.limit)
    z1, z2max = _chain_cutoffs(two_n)[:2]
    def fac(m: int) -> list[tuple[int, int]]:
        return table_factor(table, m)

    def spf(m: int) -> int:
        return int(table.spf[m])

    def rough(m: int, cutoff: int) -> int:
        return 1 if m == 1 or spf(m) >= cutoff else 0

    x = 1 if (n >= 2 and spf(n) == n) else 0
    rho1 = rough(n, z1)
    d_sum = rho2 = rho3 = rho4 = rho5 = 0
    for p1, _ in fac(n):
        if not z1 <= p1 <= z2max:
            continue
        n2 = n // p1
        rho4 += rough(n2, z1)
        for p2, _ in fac(n2):
            if not z1 <= p2 < p1:
                continue
            n3 = n2 // p2
            if pair_in_d(p1, p2, two_n):
                d_sum += rough(n3, p2)
                continue
            rho2 += rough(n3, z1)
            for p3, _ in fac(n3):
                if not z1 <= p3 < p2:
                    continue
                n4 = n3 // p3
                rho5 += rough(n4, z1)
                for p4, _ in fac(n4):
                    if not z1 <= p4 < p3:
                        continue
                    rho3 += rough(n4 // p4, p4)
    return DecompositionTerms(n, x, d_sum, rho1, rho2, rho3, rho4, rho5)


def test_classify_pinned_points():
    r = classify((Fraction(1, 2),))
    assert (r.in_ej, r.good, r.witness, r.in_d) == (True, False, None, False)
    r = classify((Fraction(2, 7),))
    assert (r.in_ej, r.good, r.witness, r.in_d) == (True, True, (0,), False)
    r = classify((Fraction(3, 10), Fraction(3, 10)))
    assert (r.in_ej, r.good, r.witness, r.in_d) == (False, True, (0,), False)
    r = classify((Fraction(13, 50), Fraction(49, 200)))
    assert r.witness is None
    assert r.in_ej and not r.good and r.in_d
    # the pair entry 1/7 + 1/7 = 2/7 lands in a window even though
    # neither entry does on its own
    assert classify((Fraction(1, 7), Fraction(1, 7))).witness == (0, 1)
    assert classify((0.3, 0.3)).good   # float input, read exactly
    with pytest.raises(PreconditionError):
        classify((Fraction(1, 4), Fraction(1, 3)))
    with pytest.raises(PreconditionError):
        classify((Fraction(1, 2),) * 5)


def test_classify_decides_floats_by_their_binary_value():
    # the float nearest 2/7 lies below 2/7, so it misses the window [2/7, 3/7]
    assert Fraction(2 / 7) < Fraction(2, 7)
    assert classify((2 / 7,)).good is False
    assert classify((Fraction(2, 7),)).good


def test_prime_pair_predicates():
    assert pair_in_d(47, 23, 10**6)
    assert pair_in_d(47, 29, 10**6)
    assert not pair_in_d(997, 11, 10**6)
    assert good_prime_pair(101, 97, 10**6)
    assert good_prime_pair(5003, 2, 10**6)
    assert not good_prime_pair(47, 23, 10**6)


def test_integer_predicates_agree_with_float_classification():
    two_n = 10**6
    log2n = math.log(two_n)
    for p1, p2 in ((47, 23), (47, 29), (997, 11), (101, 97)):
        pt = (math.log(p1) / log2n, math.log(p2) / log2n)
        res = classify(pt)
        assert good_prime_pair(p1, p2, two_n) == res.good
        assert pair_in_d(p1, p2, two_n) == res.in_d


def in_d(pt):
    return classify(pt).in_d


def in_a1(pt):
    return triangle_contains(TRIANGLE_SHALLOW, pt)


def in_a2(pt):
    return triangle_contains(TRIANGLE_STEEP, pt)


def test_region_membership():
    dot = (Fraction(13, 50), Fraction(49, 200))
    assert in_d(dot) and in_a1(dot) and not in_a2(dot)
    for pt in ((Fraction(3, 10), Fraction(3, 10)),
               (Fraction(1, 7), Fraction(1, 7))):
        assert not in_d(pt) and not in_a1(pt) and not in_a2(pt)
    diag = (Fraction(5, 21), Fraction(5, 21))
    assert not in_d(diag) and in_a1(diag) and not in_a2(diag)


def test_triangle_contains_closed_unit_triangle():
    tri = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(1)))
    assert triangle_contains(tri, (Fraction(0), Fraction(0)))
    assert triangle_contains(tri, (Fraction(1, 2), Fraction(1, 2)))  # edge
    assert not triangle_contains(tri, (Fraction(3, 5), Fraction(3, 5)))


def test_triangles_cover_the_bad_region():
    rng = random.Random(61)
    hits = uncovered = 0
    for _ in range(400):
        a = Fraction(rng.randrange(1, 200), 400)
        b = Fraction(rng.randrange(1, 200), 400)
        pt = (max(a, b), min(a, b))
        if in_d(pt):
            hits += 1
            if not (in_a1(pt) or in_a2(pt)):
                uncovered += 1
    assert hits == 8
    assert uncovered == 0


def test_decomposition_terms_single_n(table):
    terms = decomposition_terms(100037, 100000, table)
    assert (terms.x, terms.d_sum) == (0, 0)
    assert (terms.rho1, terms.rho2, terms.rho3, terms.rho4, terms.rho5) \
        == (1, 1, 0, 2, 0)
    assert terms.identity_holds
    with pytest.raises(PreconditionError):
        decomposition_terms(99999, 100000, table)


def test_decomposition_identity_on_random_sample(table):
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randrange(100000, 200000)
        terms = decomposition_terms(n, 100000, table)
        assert terms.identity_holds


def test_decomposition_terms_refusals(table):
    # n lies in [N, 2N) but past the table, which is the only factor route
    with pytest.raises(PreconditionError):
        decomposition_terms(table.limit + 1, 150_000, table)
    with pytest.raises(PreconditionError):
        decomposition_check(150_000, 250_000, table)


def test_decomposition_check_window(table):
    assert decomposition_check(100_000, 100_500, table) == 0
    with pytest.raises(PreconditionError):
        decomposition_check(50, 80, table)
    with pytest.raises(PreconditionError):
        decomposition_check(1000, 2001, table)


def _oracle_terms(n_lo, n_hi, n_base, table):
    """Rows x, d_sum, rho1..rho5 of the per-n oracle over [n_lo, n_hi)."""
    rows = [decomposition_terms(n, n_base, table) for n in range(n_lo, n_hi)]
    return np.array([[getattr(t, name) for t in rows] for name in
                     ("x", "d_sum", "rho1", "rho2", "rho3", "rho4", "rho5")],
                    dtype=np.int64)


@pytest.fixture(scope="module")
def wide_table():
    return arith.FactorTable(2**20 + 20_000)


@pytest.mark.parametrize("n_base, n_hi", [
    (100, 200),
    (10**5, 2 * 10**5),           # criterion 2's window
    (8192, 16384),                # 2N = 2^14: (2N)^2 and (2N)^3 are 7th powers
    (139968, 139968 + 20_000),    # 2N = 6^7: every cutoff is tight
    (2**20, 2**20 + 20_000),      # 2N = 2^21
    (15137, 15137 + 2 * _BLOCK + 500),   # straddles two block boundaries
    # whole windows where a chain's prime or prime product sits exactly on
    # a cutoff, so an off-by-one comparison changes some term: p1 = z2max
    # (N = 145), p1 p2 = c5 (173), p1 p2^2 = c5 at the D boundary (691),
    # p1 p2 = c3 (826); [100, 200) has one on c2
    (145, 290), (173, 346), (691, 1382), (826, 1652),
])
def test_block_terms_match_the_per_n_oracle(wide_table, n_base, n_hi):
    # the blocks decomposition_check runs on [N, n_hi)
    got = np.concatenate(list(_window_terms(n_base, n_hi, wide_table.spf)),
                         axis=1)
    want = _oracle_terms(n_base, n_hi, n_base, wide_table)
    assert got.shape == want.shape == (7, n_hi - n_base)
    assert np.array_equal(got, want)


def test_block_terms_match_the_oracle_on_random_slices():
    # five slices of one block each, from windows [N, 2N) with N up to 10^7
    rng = random.Random(71)
    slices = []
    for _ in range(5):
        n_base = rng.randrange(10**3, 10**7)
        lo = rng.randrange(n_base, min(2 * n_base, 10**7) - 2000)
        slices.append((n_base, lo, lo + 2000))
    table = arith.FactorTable(max(hi for _, _, hi in slices))
    for n_base, lo, hi in slices:
        got = _block_terms(lo, hi, 2 * n_base, table.spf)
        assert np.array_equal(got, _oracle_terms(lo, hi, n_base, table)), \
            (n_base, lo)


@pytest.mark.parametrize("two_n", [2**14, 6**7, 2**21, 200_000, 2 * 10**7 + 2])
def test_chain_cutoffs_are_the_power_tests(two_n):
    z1, z2max, c2, c3, c4, c5 = _chain_cutoffs(two_n)
    assert z1**7 >= two_n > (z1 - 1) ** 7
    assert z2max**2 < two_n <= (z2max + 1) ** 2
    for low, k in ((c2, 2), (c4, 4)):        # s^7 >= (2N)^k iff s >= low
        assert low**7 >= two_n**k > (low - 1) ** 7
    for high, k in ((c3, 3), (c5, 5)):       # s^7 <= (2N)^k iff s <= high
        assert high**7 <= two_n**k < (high + 1) ** 7


def test_decomposition_check_refuses_before_any_block(table, monkeypatch):
    def no_block(*args):
        raise AssertionError("a block was built before the guards ran")

    monkeypatch.setattr(buchstab, "_block_terms", no_block)
    for n_base, n_end in ((50, 80), (1000, 2001), (150_000, 250_000)):
        with pytest.raises(PreconditionError):
            decomposition_check(n_base, n_end, table)


def test_decomposition_check_transient_is_one_block(table, monkeypatch):
    # every block spans at most _BLOCK values of n, and the traced peak of
    # a 24-block window is that of a 2-block one: nothing grows with it
    spans = []
    block_terms = buchstab._block_terms

    def recorded(lo, hi, two_n, spf):
        spans.append(hi - lo)
        return block_terms(lo, hi, two_n, spf)

    monkeypatch.setattr(buchstab, "_block_terms", recorded)
    peaks = []
    for n_end in (100_000 + 2 * _BLOCK, 200_000):
        tracemalloc.start()
        try:
            assert decomposition_check(100_000, n_end, table) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sum(spans) == 2 * _BLOCK + 100_000
    assert max(spans) == _BLOCK
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 100_000 * 8 * _FACTOR_WIDTH


def test_region_integrals_pinned_values():
    out = region_integrals()
    assert out["I1"] == pytest.approx(0.03925881226602388, rel=1e-9)
    assert out["I2"] == pytest.approx(0.056628026048051464, rel=1e-9)
    assert out["b"] == pytest.approx(1.0 - out["I1"] - out["I2"], abs=1e-15)
    assert out["integral_over_D"] <= out["I1"] + out["I2"] + 1e-9
    assert out["quadrature_error"] == 0.0


def test_region_integrals_order_sensitivity():
    low = region_integrals(order=8)
    assert low["quadrature_error"] < 1e-12
    with pytest.raises(PreconditionError):
        region_integrals(order=6)
    with pytest.raises(BudgetError):
        region_integrals(order=8, tol=1e-18)


def test_region_integrals_refuse_a_huge_order_before_building_rules(monkeypatch):
    def no_rule(n):
        raise AssertionError(f"order-{n} rule built before the budget check")

    monkeypatch.setattr(buchstab, "_legendre_rule", no_rule)
    with pytest.raises(BudgetError) as refused:
        region_integrals(order=5000)
    assert refused.value.estimate == 5000**2 + 5008**2
    assert refused.value.estimate > buchstab.REGION_NODE_PAIR_BUDGET


# I1, I2 and the integral over D to 34 digits, from mpmath quad at 40 digits
REGION_REFERENCE = {
    "I1": "0.039258812266023885014256194781957715",
    "I2": "0.056628026048051517543977782737189197",
    "integral_over_D": "0.095886838314075402558233977519146913",
}


@pytest.mark.parametrize("order", [8, 24, 40])
def test_region_integrals_correctly_rounded(order):
    out = region_integrals(order=order)
    for key, ref in REGION_REFERENCE.items():
        assert out[key] == float(Decimal(ref)), key
    assert out["quadrature_error"] == 0.0


@pytest.mark.parametrize("n", [8, 24, 32])
def test_legendre_rule_integrates_polynomials_exactly(n):
    nodes, weights = _legendre_rule(n)
    assert len(nodes) == len(weights) == n
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (4 - _CONTEXT.prec)
        assert abs(sum(weights) - 2) <= tiny
        for j in range(2 * n):
            moment = sum(w * x**j for x, w in zip(nodes, weights))
            exact = Decimal(2) / (j + 1) if j % 2 == 0 else 0
            assert abs(moment - exact) <= tiny, j


# The iterated 2-D route the library ran before the inner integral had a
# closed form: a Gauss rule over a2 at each outer node, split at the omega
# kink u = 2, with ln from the decimal module.  It is the oracle for
# _inner_integral.

def kink_side_oracle(c, lo, hi, nodes, weights):
    """Gauss rule for the integral over a2 in [lo, hi] of omega(u)/a2^2,
    u = c/a2 - 1, on a piece on one side of the kink; there omega(u)/a2^2 is
    1/(a2*(c - a2)) on [1, 2] and (1 + ln(u - 1))/(a2*(c - a2)) on [2, 3]."""
    half = (hi - lo) / 2
    mid = lo + half
    a2s = [mid + half * x for x in nodes]
    u_min, u_max = c / a2s[-1] - 1, c / a2s[0] - 1
    if not (1 <= u_min and u_max <= 3):
        raise CapacityError(f"u in [{u_min:.6g}, {u_max:.6g}]")
    if c / mid <= 3:   # u <= 2 at the midpoint, so across the piece
        total = sum(w / (a2 * (c - a2)) for a2, w in zip(a2s, weights))
    else:
        total = sum(w * (1 + ((c - a2 - a2) / a2).ln()) / (a2 * (c - a2))
                    for a2, w in zip(a2s, weights))
    return half * total


def inner_oracle(c, lo, hi, nodes, weights):
    kink = c / 3
    cuts = [lo, kink, hi] if lo < kink < hi else [lo, hi]
    return sum(kink_side_oracle(c, a, b, nodes, weights)
               for a, b in zip(cuts, cuts[1:]))


def test_ln_kernel():
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (4 - _CONTEXT.prec)
        for i in range(0, 257, 8):
            z = 1 + Decimal(i) / 256
            assert abs(_ln(z) - z.ln()) <= tiny


@pytest.mark.parametrize("z", ["0.5", "0.6", "0.625", "2/3", "0.7", "5/7",
                               "0.74", "0.75"])
def test_li2_kernel_matches_the_defining_series(z):
    # sum z^k/k^2 in Fractions, to k = 400: the tail past it is below
    # z^401/(401^2 (1 - z)) < 1e-54 at z <= 3/4
    z = Fraction(z)
    term, series = Fraction(1), Fraction(0)
    for k in range(1, 401):
        term *= z
        series += term / (k * k)
    with localcontext(_CONTEXT):
        w = -(1 - Decimal(z.numerator) / z.denominator).ln()
        exact = Decimal(series.numerator) / series.denominator
        assert abs(_li2(w) - exact) <= Decimal(10) ** (2 - _CONTEXT.prec)


def test_li2_kernel_obeys_the_reflection_identity():
    # Li2(z) + Li2(1 - z) + ln z ln(1 - z) = pi^2/6 = 2 Li2(1/2) + ln^2 2
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (3 - _CONTEXT.prec)
        ln2 = Decimal(2).ln()
        target = 2 * _li2(ln2) + ln2 * ln2
        for z in ("0.25", "0.3", "0.35", "0.4", "0.45"):
            z = Decimal(z)
            ln_z, ln_1z = z.ln(), (1 - z).ln()
            assert abs(_li2(-ln_1z) + _li2(-ln_z) + ln_z * ln_1z - target) <= tiny


def test_closed_form_omega_pieces():
    nodes, weights = _legendre_rule(32)
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (4 - _CONTEXT.prec)
        c = Decimal("0.75")
        # u <= 2 (a2 >= c/3), u >= 2, and a piece across the kink
        for lo, hi in (("0.25", "0.375"), ("0.3", "0.35"), ("0.1875", "0.25"),
                       ("0.2", "0.24"), ("0.2", "0.3"), ("0.24", "0.26")):
            lo, hi = Decimal(lo), Decimal(hi)
            assert abs(_inner_integral(c, lo, hi)
                       - inner_oracle(c, lo, hi, nodes, weights)) <= tiny
        # the sections at the ends and middle of each outer piece of both
        # triangles, some of them empty; a rule keeps what _inner_integral gives
        rule = _GaussRule(24)
        for lo, hi, section in (buchstab._triangle_pieces("shallow")
                                + buchstab._triangle_pieces("steep")):
            for a1 in (lo, (lo + hi) / 2, hi):
                c, (a2_lo, a2_hi) = 1 - a1, section(a1)
                assert abs(_inner_integral(c, a2_lo, a2_hi)
                           - inner_oracle(c, a2_lo, a2_hi, nodes, weights)) <= tiny
                assert (rule.inner(a1, a2_lo, a2_hi)
                        == _inner_integral(c, a2_lo, a2_hi) / a1)
        # u = c/a2 - 1 reaches above 3, then below 1: no closed form there
        c = Decimal("0.75")
        for lo, hi in ((Decimal("0.15"), Decimal("0.25")),
                       (Decimal("0.3"), Decimal("0.4"))):
            with pytest.raises(CapacityError):
                _inner_integral(c, lo, hi)
            with pytest.raises(CapacityError):
                inner_oracle(c, lo, hi, nodes, weights)


@pytest.mark.parametrize("order", [24, 32])
def test_region_decimals_match_the_references(order):
    rule = _GaussRule(order)
    with localcontext(_CONTEXT):
        got = {"I1": _triangle_integral("steep", rule),
               "I2": _triangle_integral("shallow", rule),
               "integral_over_D": _d_integral(rule)}
        for key, ref in REGION_REFERENCE.items():
            assert abs(got[key] - Decimal(ref)) <= Decimal(10) ** -34, key


def test_region_integrals_match_the_2d_route():
    # the same outer rule over the oracle's inner Gauss rule: the routes
    # differ only by the inner rule's error, some 1e-35 at order 24
    nodes, weights = _legendre_rule(24)
    closed_form, two_d = _GaussRule(16), _GaussRule(16)
    two_d.inner = lambda a1, lo, hi: inner_oracle(1 - a1, lo, hi, nodes,
                                                   weights) / a1
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (4 - _CONTEXT.prec)
        for route in (lambda r: _triangle_integral("steep", r),
                      lambda r: _triangle_integral("shallow", r), _d_integral):
            assert abs(route(closed_form) - route(two_d)) <= tiny


def test_region_tables_are_built_on_first_use():
    code = ("from beattysieve import buchstab as b; "
            "print(b._ln_table.cache_info().currsize, "
            "b._li2_coeffs.cache_info().currsize, "
            "b._log_side_at_kink.cache_info().currsize)")
    src = str(Path(buchstab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0 0 0\n"
