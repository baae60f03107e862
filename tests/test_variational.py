"""Simplex polynomial calculus and the variational lower bounds."""
import math
import warnings
from fractions import Fraction

import pytest

from beattysieve.errors import PreconditionError
from beattysieve.variational import (MkCertificate, SimplexPolynomial, forms,
                                     k_satisfying, mk_lower_bound,
                                     rayleigh_quotient,
                                     simplex_monomial_integral,
                                     symmetric_basis)


def test_monomial_integrals_by_hand():
    assert simplex_monomial_integral((0, 0), 2) == Fraction(1, 2)
    assert simplex_monomial_integral((1, 0), 2) == Fraction(1, 6)
    assert simplex_monomial_integral((1, 1), 2) == Fraction(1, 24)
    assert simplex_monomial_integral((2, 0), 2) == Fraction(1, 12)
    assert simplex_monomial_integral((0,), 1) == 1
    assert simplex_monomial_integral((3, 1, 2), 3) == Fraction(12, math.factorial(9))


def test_polynomial_evaluate_integral_marginal():
    f = SimplexPolynomial.from_terms(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    assert f.evaluate((Fraction(1, 4), Fraction(1, 4))) == Fraction(1, 2)
    assert f.integral() == Fraction(1, 6)
    assert (f * f).integral() == Fraction(1, 12)
    g = f.marginal(0)
    # marginal of 1 - t1 - t2 over t1 is (1 - t2)^2 / 2
    assert g.evaluate((Fraction(0),)) == Fraction(1, 2)
    assert (g * g).integral() == Fraction(1, 20)
    one = SimplexPolynomial.constant(2, 1)
    assert one.integral() == Fraction(1, 2)


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
