"""Continued fractions and best rational approximations.

Rational inputs (numpy integers too) are read exactly, anything else at
the binary value of float(x).  The expansion runs Euclid's algorithm on
the integer numerator and denominator of gamma and ends at the first
convergent within 1e-14 of gamma, for float and Fraction inputs alike,
so a high precision Fraction buys no convergents past that tolerance; a
53-bit float's expansion tracks the underlying real only while q stays
below 2^26.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arith import int_root, to_fraction
from .errors import ImpossibleInputError, PreconditionError


@dataclass(frozen=True)
class RationalApprox:
    numerator: int
    denominator: int
    quality: Fraction  # |gamma - numerator/denominator|
    flag: str | None = None


def convergents(gamma) -> Iterator[RationalApprox]:
    """The continued fraction convergents p/q of gamma in (0, 1), lazily.

    The expansion starts at p0/q0 = 0/1.  With gamma = num/den in lowest
    terms the quality of p/q is |num*q - p*den| / (den*q), and the
    expansion stops when gamma is rational within precision: an exactly
    consumed remainder flags the last convergent "exact", a quality of at
    most 1e-14 flags it "near-rational".
    """
    num, den = to_fraction(gamma).as_integer_ratio()
    if not 0 < num < den:
        raise PreconditionError("gamma must lie in (0, 1)", gamma=num / den)
    yield RationalApprox(0, 1, Fraction(num, den))
    p_prev, q_prev, p, q = 1, 0, 0, 1   # p_{-1}/q_{-1} and p_0/q_0
    x, y = num, den   # the remainder of the expansion is x/y
    while True:
        a, x, y = y // x, y % x, x
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        err = abs(num * q - p * den)
        flag = None
        if err * 10**14 <= den * q:
            flag = "near-rational" if err else "exact"
        yield RationalApprox(p, q, Fraction(err, den * q), flag)
        if flag:
            return


def last_convergent(gamma, cap: int) -> RationalApprox:
    """The convergent of gamma with the largest denominator <= cap, the
    later one on a tie (1/1 over 0/1 for gamma > 1/2); the expansion
    starts at 0/1, so every cap >= 1 has one."""
    *_, last = itertools.takewhile(lambda c: c.denominator <= cap,
                                   convergents(gamma))
    return last


def approx_for_modulus(gamma, n: int) -> RationalApprox:
    """Largest convergent denominator r <= n^(3/4) with |gamma - b/r| <= 1/(r n^(3/4)).

    Such a convergent always exists (the next denominator exceeds the cap, and
    consecutive convergents satisfy |gamma - p/q| < 1/(q q')).  The comparison
    against the irrational cap is done on fourth powers, exactly.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2", n=n)
    chosen = last_convergent(gamma, int_root(n**3, 4))
    # |g - b/r| = err/den <= 1/(r n^(3/4))  <=>  (err r)^4 n^3 <= den^4
    err, den = chosen.quality.as_integer_ratio()
    if (err * chosen.denominator) ** 4 * n**3 > den**4:
        raise ImpossibleInputError(
            f"convergent {chosen.numerator}/{chosen.denominator} misses the quality bound")
    return chosen
