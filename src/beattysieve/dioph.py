"""Continued fractions and best rational approximations.

Rational inputs (numpy integers too) are read exactly, anything else at
the binary value of float(x); pass a high precision Fraction when
convergents with large denominators are needed, since the expansion of a
53-bit rational tracks the underlying real only while q stays below 2^26.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import int_root, to_fraction
from .errors import ImpossibleInputError, PreconditionError

NEAR_RATIONAL_TOL = Fraction(1, 10**14)


@dataclass(frozen=True)
class RationalApprox:
    numerator: int
    denominator: int
    quality: Fraction  # |gamma - numerator/denominator|
    flag: str | None = None


def convergents(gamma, depth: int) -> list[RationalApprox]:
    """First `depth` continued fraction convergents p/q of gamma in (0, 1).

    The list starts at p0/q0 = 0/1.  Expansion stops early when gamma is
    rational within precision: an exactly consumed remainder flags the last
    convergent "exact", a quality below 1e-14 flags it "near-rational".
    """
    g = to_fraction(gamma)
    if not 0 < g < 1:
        raise PreconditionError("gamma must lie in (0, 1)", gamma=float(g))
    if depth < 1:
        raise PreconditionError("depth must be >= 1", depth=depth)
    out = [RationalApprox(0, 1, g)]
    p_prev, q_prev = 1, 0  # p_{-1}/q_{-1}
    p, q = 0, 1
    x = g
    while len(out) < depth and x != 0:
        x = 1 / x
        a = int(x)  # floor; x > 0
        x -= a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        quality = abs(g - Fraction(p, q))
        approx = RationalApprox(p, q, quality)
        if quality <= NEAR_RATIONAL_TOL:
            out.append(RationalApprox(p, q, quality,
                                      "exact" if quality == 0 else "near-rational"))
            break
        out.append(approx)
    return out


def approx_for_modulus(gamma, n: int) -> RationalApprox:
    """Largest convergent denominator r <= n^(3/4) with |gamma - b/r| <= 1/(r n^(3/4)).

    Such a convergent always exists (the next denominator exceeds the cap, and
    consecutive convergents satisfy |gamma - p/q| < 1/(q q')).  The comparison
    against the irrational cap is done on fourth powers, exactly.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2", n=n)
    g = to_fraction(gamma)
    cap = int_root(n**3, 4)
    seq = convergents(g, 64)
    chosen = None
    for approx in seq:
        if approx.denominator > cap:
            break
        chosen = approx
    if chosen is None:
        raise ImpossibleInputError(f"no convergent denominator <= {cap}")
    # |g - b/r| <= 1/(r n^(3/4))  <=>  (|g - b/r| r)^4 <= 1/n^3
    lhs = (chosen.quality * chosen.denominator) ** 4
    if lhs * n**3 > 1:
        raise ImpossibleInputError(
            f"convergent {chosen.numerator}/{chosen.denominator} misses the quality bound")
    return chosen
