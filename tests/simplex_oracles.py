"""The Fraction route for the simplex integrals of beattysieve.variational.

The package computes every simplex integral on integers, through one Gram
kernel over one denominator; these are the rational routes it replaced,
kept to check it against: the Dirichlet integral of one term as a Fraction,
the product of two polynomials, the integral term by term, and the marginal
with one reduced Fraction weight per term.
"""
import math
from fractions import Fraction

from beattysieve import variational
from beattysieve.errors import PreconditionError
from beattysieve.variational import SimplexPolynomial


def dirichlet(k: int, a: int, b: int) -> Fraction:
    """Exact integral of (1 - P1)^a * P2^b over the k-simplex."""
    return Fraction(variational._dirichlet_num(k, a, b),
                    math.factorial(k + a + 2 * b))


def product(p: SimplexPolynomial, q: SimplexPolynomial) -> SimplexPolynomial:
    """p * q: the keys add and the coefficients multiply."""
    if p.k != q.k:
        raise PreconditionError("dimension mismatch", left=p.k, right=q.k)
    out: dict = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return SimplexPolynomial(p.k, {key: c for key, c in out.items() if c})


def integral(p: SimplexPolynomial) -> Fraction:
    """Exact integral of p over its simplex, one Fraction per term."""
    return sum((c * dirichlet(p.k, a, b) for (a, b), c in p.terms.items()),
               Fraction(0))


def marginal(p: SimplexPolynomial) -> SimplexPolynomial:
    """Integrate out one variable; the result lives on the (k-1)-simplex.

    Every variable gives the same result: term (a, b) becomes
    sum_j C(b, j) a! (2j)! / (a + 2j + 1)! * (a + 2j + 1, b - j).
    """
    if p.k < 1:
        raise PreconditionError("no variable left to integrate out", k=p.k)
    out: dict = {}
    for (a, b), c in p.terms.items():
        for j in range(b + 1):
            key = (a + 2 * j + 1, b - j)
            w = c * math.comb(b, j) * Fraction(
                math.factorial(a) * math.factorial(2 * j),
                math.factorial(a + 2 * j + 1))
            out[key] = out.get(key, Fraction(0)) + w
    return SimplexPolynomial(p.k - 1, {key: v for key, v in out.items() if v})
