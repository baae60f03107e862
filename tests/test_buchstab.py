"""Exponent classification, chain identity, region geometry, integrals."""
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from beattysieve import buchstab
from beattysieve.buchstab import (_CONTEXT, _kink_side_integral,
                                  _legendre_rule, _ln, decomposition_check,
                                  decomposition_terms, good_prime_pair,
                                  pair_in_d, region_integrals)
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


def test_closed_form_omega_pieces():
    nodes, weights = _legendre_rule(24)
    with localcontext(_CONTEXT):
        tiny = Decimal(10) ** (4 - _CONTEXT.prec)
        for i in range(0, 257, 8):
            z = 1 + Decimal(i) / 256
            assert abs(_ln(z) - z.ln()) <= tiny
        # on the u <= 2 side the piece integrand 1/(a2*(c - a2)) has the
        # antiderivative ln(a2/(c - a2))/c
        c, lo, hi = Decimal("0.75"), Decimal("0.25"), Decimal("0.375")
        exact = ((hi / (c - hi)).ln() - (lo / (c - lo)).ln()) / c
        assert abs(_kink_side_integral(c, lo, hi, nodes, weights) - exact) <= tiny
        # u = c/a2 - 1 reaches above 3, then below 1: no closed form there
        for lo, hi in ((Decimal("0.15"), Decimal("0.25")),
                       (Decimal("0.3"), Decimal("0.4"))):
            with pytest.raises(CapacityError):
                _kink_side_integral(c, lo, hi, nodes, weights)
