"""Beatty sequences as circle rotations.

The sequence B(alpha, beta) = { floor(alpha*m + beta) : m = 1, 2, ... } with
alpha > 1 and 0 <= beta < alpha.  alpha and beta are stored as Fractions
and, once per BeattyParams, as integers over one common denominator:
alpha = A/D and beta = B/D with D = lcm(den alpha, den beta).  Membership
and enumeration are then two integer identities, exact for the stored
rationals at every n:

    the members of [lo, hi) are (A*m + B) // D for the m >= 1 with
        ceil((D*lo - B)/A) <= m < ceil((D*hi - B)/A);
    n >= 1 is a member iff 0 < r <= D and x - r >= A, where
        x = D*(n + 1) - B and r = x mod A, and its index is (x - r)/A.

The second holds because A > D: at most one multiple A*m lies in
[x - D, x), and it is x - r when 0 < r <= D.

Geometrically, writing gamma = 1/alpha, n is a member exactly when

    gamma*n  mod 1  in  (gamma*beta - gamma, gamma*beta]      (half open arc)

and the recovered index m = ceil(gamma*(n - beta)) is at least 1.  Arcs on
R/Z are half open (left, left + length]; this makes the criterion exact on
the right endpoint, where floor(alpha*m + beta) lands when gamma*(n - beta)
is an integer.  membership_interval and shift_intersection keep this arc
geometry for the regularity report.

A quadratic surd is a separate matter: quadratic() stores sqrt(d) rounded
down to SURD_DIGITS = 40 decimal digits, and everything above is exact for
that rational.  For a quadratic irrational alpha the distance from alpha*m
to the nearest integer is >> 1/m, far above the 1e-40 representation
error, so floor(alpha*m) is the same for the stored rational and the true
surd while m stays well below 10^19.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Rational

from .errors import PreconditionError

SURD_DIGITS = 40


def sqrt_fraction(d: int) -> Fraction:
    """floor(sqrt(d) * 10^SURD_DIGITS) / 10^SURD_DIGITS: sqrt(d) good to
    SURD_DIGITS decimal digits, rounded down."""
    if d < 0:
        raise ValueError("d must be >= 0")
    scale = 10**SURD_DIGITS
    return Fraction(math.isqrt(d * scale * scale), scale)


def _to_fraction(x) -> Fraction:
    """A Rational as its exact Fraction (with Python int terms, so numpy
    integers cannot overflow later); anything else as the exact binary
    value of float(x)."""
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    return Fraction(float(x))


@dataclass(frozen=True)
class BeattyParams:
    """Slope/intercept pair; alpha_exact drives all membership decisions."""

    alpha_exact: Fraction
    beta_exact: Fraction = Fraction(0)

    def __post_init__(self):
        if self.alpha_exact <= 1:
            raise PreconditionError("alpha must be > 1", alpha=float(self.alpha_exact))
        if not 0 <= self.beta_exact < self.alpha_exact:
            raise PreconditionError("beta must lie in [0, alpha)", beta=float(self.beta_exact))

    @classmethod
    def make(cls, alpha, beta=0) -> "BeattyParams":
        return cls(_to_fraction(alpha), _to_fraction(beta))

    @classmethod
    def quadratic(cls, a: int, b: int, d: int, c: int = 1) -> "BeattyParams":
        """alpha = (a + b*sqrt(d)) / c with sqrt(d) from sqrt_fraction, and
        beta = 0."""
        return cls((Fraction(a) + b * sqrt_fraction(d)) / c)

    @cached_property
    def _integers(self) -> tuple[int, int, int]:
        """(A, B, D): alpha = A/D and beta = B/D over the common denominator
        D = lcm(den alpha, den beta)."""
        a, b = self.alpha_exact, self.beta_exact
        d = math.lcm(a.denominator, b.denominator)
        return (a.numerator * (d // a.denominator),
                b.numerator * (d // b.denominator), d)

    @property
    def alpha(self) -> float:
        return float(self.alpha_exact)

    @property
    def beta(self) -> float:
        return float(self.beta_exact)

    @property
    def gamma_exact(self) -> Fraction:
        return 1 / self.alpha_exact

    @property
    def gamma(self) -> float:
        return float(self.gamma_exact)


@dataclass(frozen=True)
class TorusInterval:
    """Half open arc (left, left + length] on R/Z; endpoints may be Fraction or float."""

    left: object
    length: object

    def __post_init__(self):
        if not 0 < self.length < 1:
            raise PreconditionError("arc length must lie in (0, 1)", length=float(self.length))


def membership_interval(params: BeattyParams) -> TorusInterval:
    """Arc I with: n in B(alpha, beta) iff gamma*n mod 1 in I (index check aside)."""
    g = params.gamma_exact
    left = (g * params.beta_exact - g) % 1
    return TorusInterval(left, g)


def recovered_index(params: BeattyParams, n: int) -> int:
    """ceil(gamma*(n - beta)) = ceil((D*n - B)/A): the unique m with
    floor(alpha*m + beta) = n, if n is a member."""
    a, b, d = params._integers
    return -((b - d * int(n)) // a)


def torus_member(params: BeattyParams, n: int) -> bool:
    """Exact membership test for n >= 1: 0 < x mod A <= D and the index
    (x - x mod A)/A is >= 1, where x = D*(n + 1) - B."""
    if n < 1:
        raise PreconditionError("n must be >= 1", n=n)
    a, b, d = params._integers
    x = d * (int(n) + 1) - b
    r = x % a
    return 0 < r <= d and x - r >= a


def beatty_enumerate(params: BeattyParams, lo: int, hi: int) -> list[int]:
    """All members of B(alpha, beta) in [lo, hi), ascending: (A*m + B)//D
    for the indices m >= 1 with D*lo <= A*m + B < D*hi."""
    a, b, d = params._integers
    m_lo = max(1, -((b - d * int(lo)) // a))
    m_hi = -((b - d * int(hi)) // a)
    return [(a * m + b) // d for m in range(m_lo, m_hi)]


def shift_intersection(interval: TorusInterval, params: BeattyParams, h: int,
                       eps) -> TorusInterval:
    """Arc J with {n in B : n - h in B} = {n >= N + h : gamma*n mod 1 in J}.

    Shifting the membership arc I = (a, a + l] by -h*gamma and intersecting
    with I gives exactly (a, a + l - t] where t = -h*gamma mod 1, provided
    0 < t < 2*eps and 2*eps < l.
    """
    eps = _to_fraction(eps)
    t = (-h * params.gamma_exact) % 1
    if not 0 < t < 2 * eps:
        raise PreconditionError(
            f"shift offset t = -h*gamma mod 1 = {float(t):.6g} outside (0, {float(2 * eps):.6g})",
            t=t, h=h)
    if not 2 * eps < interval.length:
        raise PreconditionError(
            f"arc too short: 2*eps = {float(2 * eps):.6g} >= length = {float(interval.length):.6g}",
            t=t)
    return TorusInterval(interval.left, interval.length - t)


def pigeonhole_shift(points, length):
    """Left endpoint z maximizing |{j : x_j in (z, z + length] mod 1}|.

    Candidates z = x_j - length suffice: the hit count, as a function of z,
    only steps up at those values.  Ties go to the smallest z in [0, 1).
    For M points the best count is >= ceil(M * length) (area argument).
    Returns (z, hit_indices) with z a Fraction and the indices ascending.

    Points and length are read exactly (a float at its binary value) and
    put on one common denominator D as integers X_j in [0, D) and L.  The
    candidate at x_j catches the points in (X_j - L, X_j] on the circle,
    so one sort and two pointers over the doubled circle count the hits
    of every candidate: O(M log M) rather than M^2 comparisons.
    """
    if not 0 < length < 1:
        raise PreconditionError("length must lie in (0, 1)", length=float(length))
    length = _to_fraction(length)
    pts = [_to_fraction(x) for x in points]
    if not pts:
        return 0, []
    d = math.lcm(length.denominator, *(x.denominator for x in pts))
    xs = [x.numerator * (d // x.denominator) % d for x in pts]
    arc = length.numerator * (d // length.denominator)
    ring = sorted(xs)
    ring = [x - d for x in ring] + ring   # the circle, unrolled once
    best_count, best_z = 0, None
    below = 0   # ring[below:top] are the values in (x - arc, x]
    for top, x in enumerate(ring[len(xs):], start=len(xs) + 1):
        while ring[below] <= x - arc:
            below += 1
        z = (x - arc) % d
        if top - below > best_count or (top - below == best_count and z < best_z):
            best_count, best_z = top - below, z
    hits = [j for j, x in enumerate(xs) if (best_z + arc - x) % d < arc]
    return Fraction(best_z, d), hits
