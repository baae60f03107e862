"""Simplex polynomial calculus and the variational lower bounds."""
import math
import warnings
from fractions import Fraction

import pytest

from beattysieve.errors import PreconditionError
from beattysieve.variational import (MkCertificate, SimplexPolynomial, forms,
                                     k_satisfying, mk_lower_bound,
                                     rayleigh_quotient, symmetric_basis)


def _integral(k, a, b):
    return SimplexPolynomial.from_terms(k, {(a, b): 1}).integral()


def test_monomial_integrals_by_hand():
    # (1 - P1)^a * P2^b with P1 = sum t_i, P2 = sum t_i^2
    assert _integral(2, 0, 0) == Fraction(1, 2)
    assert _integral(2, 1, 0) == Fraction(1, 6)
    assert _integral(2, 2, 0) == Fraction(1, 12)
    assert _integral(1, 3, 0) == Fraction(1, 4)
    assert _integral(2, 0, 1) == Fraction(1, 6)        # 2 * 2!/4!
    assert _integral(2, 0, 2) == Fraction(7, 90)       # (2*4! + 2*2!2!)/6!
    assert _integral(3, 1, 1) == Fraction(1, 120)      # 3 * 1!2!/6!
    # P2^2 on three variables: 3 t^4 terms and 3 pairs 2 t_i^2 t_j^2
    assert _integral(3, 0, 2) == Fraction(3 * 24 + 3 * 2 * 4, math.factorial(7))
    # P2^3 on three variables: partitions (3), (2, 1), (1, 1, 1)
    assert _integral(3, 0, 3) == Fraction(3 * 720 + 6 * 3 * 48 + 6 * 8,
                                          math.factorial(9))
    # the 0-simplex is the point t = (), where 1 - P1 = 1 and P2 = 0
    assert _integral(0, 3, 0) == 1
    assert _integral(0, 0, 1) == 0


def test_polynomial_evaluate_integral_marginal():
    f = SimplexPolynomial.from_terms(2, {(1, 0): 1})    # 1 - t1 - t2
    assert f.evaluate((Fraction(1, 4), Fraction(1, 4))) == Fraction(1, 2)
    assert f.evaluate((0.75, 0.5)) == 0.0
    assert f.evaluate((-0.25, 0.5)) == 0.0
    assert f.integral() == Fraction(1, 6)
    assert (f * f).integral() == Fraction(1, 12)
    g = f.marginal()
    # marginal of 1 - t1 - t2 over t1 is (1 - t2)^2 / 2
    assert g.k == 1 and g.terms == {(2, 0): Fraction(1, 2)}
    assert g.evaluate((Fraction(0),)) == Fraction(1, 2)
    assert (g * g).integral() == Fraction(1, 20)
    one = SimplexPolynomial.constant(2, 1)
    assert one.integral() == Fraction(1, 2)
    # int_0^u (P2' + t^2)^2 dt = u P2'^2 + 2/3 u^3 P2' + u^5/5
    p2_sq = SimplexPolynomial.from_terms(3, {(0, 2): 1})
    assert p2_sq.marginal().terms == {(1, 2): 1, (3, 1): Fraction(2, 3),
                                      (5, 0): Fraction(1, 5)}
    assert p2_sq.evaluate((0.5, 0.25, 0.0)) == 0.3125 ** 2
    with pytest.raises(PreconditionError):
        SimplexPolynomial.from_terms(2, {(0, 1, 1): 1})
    with pytest.raises(PreconditionError):
        SimplexPolynomial.constant(0).marginal()


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _add(out, key, c):
    out[key] = out.get(key, Fraction(0)) + c


def _monomial_form(k, a, b):
    """(1 - P1)^a * P2^b as {(s, e_1, ..., e_k): coefficient}, with P2^b
    expanded over the compositions of b."""
    out = {}
    for comp in _compositions(b, k):
        _add(out, (a,) + tuple(2 * c for c in comp),
             Fraction(math.factorial(b), math.prod(map(math.factorial, comp))))
    return out


def _monomial_product(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            _add(out, tuple(x + y for x, y in zip(k1, k2)), c1 * c2)
    return out


def _monomial_integral(p):
    """Dirichlet: slack^s prod t_i^e_i integrates to s! prod e_i! / (k + s + sum e)!."""
    return sum((c * Fraction(math.prod(map(math.factorial, key)),
                             math.factorial(len(key) - 1 + sum(key)))
                for key, c in p.items()), Fraction(0))


def _monomial_marginal(p):
    """Integrate out t_k: int_0^u (u - t)^s t^e dt = u^(s+e+1) s! e! / (s+e+1)!."""
    out = {}
    for key, c in p.items():
        s, e = key[0], key[-1]
        _add(out, (s + e + 1,) + key[1:-1],
             c * Fraction(math.factorial(s) * math.factorial(e),
                          math.factorial(s + e + 1)))
    return out


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _monomial_forms(k, degree):
    """A and B over the whole basis, and the positions that add nothing to
    the span of the elements before them."""
    labels, _ = symmetric_basis(k, degree)
    polys = [_monomial_form(k, a, b) for a, b in labels]
    margs = [_monomial_marginal(p) for p in polys]
    n = len(polys)
    b_mat = [[_monomial_integral(_monomial_product(polys[i], polys[j]))
              for j in range(n)] for i in range(n)]
    a_mat = [[k * _monomial_integral(_monomial_product(margs[i], margs[j]))
              for j in range(n)] for i in range(n)]
    ranks = [_rank([row[:i] for row in b_mat[:i]]) for i in range(n + 1)]
    dropped = [i for i in range(n) if ranks[i + 1] == ranks[i]]
    return a_mat, b_mat, dropped


@pytest.mark.parametrize("k, top", [(k, 5) for k in range(1, 9)] + [(3, 7)])
def test_forms_match_the_monomial_route(k, top):
    a_all, b_all, dropped_all = _monomial_forms(k, top)
    for degree in range(top + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pair = forms(symmetric_basis(k, degree)[1])
        # labels sort by total degree, so a smaller budget is a prefix
        n = len(symmetric_basis(k, degree)[0])
        dropped = [i for i in dropped_all if i < n]
        kept = [i for i in range(n) if i not in dropped]
        assert list(pair.dropped) == dropped
        assert pair.A == tuple(tuple(a_all[i][j] for j in kept) for i in kept)
        assert pair.B == tuple(tuple(b_all[i][j] for j in kept) for i in kept)


def test_symmetric_basis_and_forms_for_pairs():
    labels, elements = symmetric_basis(2, 1)
    assert labels == [(0, 0), (1, 0)]
    pair = forms(elements)
    assert pair.B == ((Fraction(1, 2), Fraction(1, 6)),
                      (Fraction(1, 6), Fraction(1, 12)))
    assert pair.A == ((Fraction(2, 3), Fraction(1, 4)),
                      (Fraction(1, 4), Fraction(1, 10)))
    assert rayleigh_quotient(pair, (Fraction(0), Fraction(1))) == Fraction(6, 5)
    assert rayleigh_quotient(pair, (1, -1)) == Fraction(16, 15)


def test_forms_drops_dependent_elements_with_a_warning():
    _, elements = symmetric_basis(1, 3)
    with pytest.warns(UserWarning):
        pair = forms(elements)
    assert pair.dropped == (3, 5)


def test_lower_bound_table():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        deg1 = {k: mk_lower_bound(k, 1)[0] for k in (1, 2, 3, 4, 5)}
        deg3 = {k: mk_lower_bound(k, 3)[0] for k in (1, 2, 3, 4, 5)}
    assert deg1[1] == pytest.approx(1.0, abs=1e-12)
    assert deg3[1] == pytest.approx(1.0, abs=1e-12)
    assert deg1[2] == pytest.approx((16 + math.sqrt(136)) / 20, abs=1e-12)
    assert deg1[5] == pytest.approx(1.9507648882267352, abs=1e-10)
    assert deg3[2] == pytest.approx(1.3859093264936135, abs=1e-10)
    assert deg3[5] == pytest.approx(2.0027471939620005, abs=1e-10)
    for k in (2, 3, 4, 5):
        assert deg3[k] > deg1[k]
        assert deg3[k] > deg3[k - 1]
    with pytest.raises(PreconditionError):
        mk_lower_bound(0)


def test_certificate_renormalized_and_reproducible():
    bound, cert = mk_lower_bound(3, 3)
    assert isinstance(cert, MkCertificate)
    assert max(abs(c) for c in cert.coefficients) == 1
    labels, elements = symmetric_basis(3, 3)
    keep = [elements[labels.index(lab)] for lab in cert.labels]
    pair = forms(keep)
    requoted = rayleigh_quotient(pair, cert.coefficients)
    assert float(requoted) == pytest.approx(bound, abs=1e-9)


def test_maynard_m105():
    # Maynard, Small gaps between primes, Proposition 4.3: M_105 > 4.0020697
    bound, cert = mk_lower_bound(105, 11)
    assert bound > 4.0020697
    labels, elements = symmetric_basis(105, 11)
    keep = [elements[labels.index(lab)] for lab in cert.labels]
    assert rayleigh_quotient(forms(keep), cert.coefficients) == cert.quotient


def test_k_search_certified_and_fallback_paths():
    # the search walks through bases whose denominator form is singular,
    # so the dependent-element warning is expected along the way
    with pytest.warns(UserWarning, match="singular"):
        res = k_satisfying(2, 1.0, 0.9993)
        assert res.certified
        assert res.k == 5
        assert res.threshold == pytest.approx(2 / 0.9993)

        loose = k_satisfying(2, 1, 0.5)
        assert not loose.certified
        assert loose.k == 1097
        assert loose.threshold == pytest.approx(4.0)
        assert len(loose.trail) == 12

        frac = k_satisfying(2, 0.90411, 2 / 7)
        assert not frac.certified
        assert frac.threshold == pytest.approx(7.742420723142096)

        single = k_satisfying(1, 0.5, 0.5)
        assert single.certified and single.k == 1
        assert single.threshold == 0


def test_k_search_validation():
    with pytest.raises(PreconditionError):
        k_satisfying(0, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        k_satisfying(2, 0.0, 0.5)
    with pytest.raises(PreconditionError):
        k_satisfying(2, 1.0, 1.5)
