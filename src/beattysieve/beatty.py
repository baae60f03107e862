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

beatty_members lists a window without one big-integer division per
member.  With m_lo and m_hi exact as above and (c0, r0) = divmod(A*m_lo
+ B, D), the j-th member is c0 + floor(r0/D + j*alpha) = c0 + (r0 +
j*A)//D.  fractional_parts takes that floor in float64 and flags the j
it cannot vouch for, which are recomputed on Python ints; the result is
the integer identity above at every entry.  Its error bound grows with
the window's width, not its position, so a window at 10^18 takes the
same route as one at 10^3; only the members must fit in int64.  For an
irrational alpha almost no entry is flagged; for a rational alpha with a
small denominator many values are integers and all of those are.

Geometrically, writing gamma = 1/alpha, n is a member exactly when

    gamma*n  mod 1  in  (gamma*beta - gamma, gamma*beta]      (half open arc)

and the recovered index m = ceil(gamma*(n - beta)) is at least 1.  Arcs on
R/Z are half open (left, left + length]; this makes the criterion exact on
the right endpoint, where floor(alpha*m + beta) lands when gamma*(n - beta)
is an integer.  membership_interval and shift_intersection keep this arc
geometry for the regularity report, which tests it on its primes
through fractional_parts too: the float64 fractional part decides every
n it does not flag at the arc's endpoints, and integers over a common
denominator decide the rest (equidist._arc_hits).

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

import numpy as np

from .arith import common_denominator, to_fraction
from .errors import PreconditionError

SURD_DIGITS = 40
INT64_MAX = 2**63 - 1


def sqrt_fraction(d: int) -> Fraction:
    """floor(sqrt(d) * 10^SURD_DIGITS) / 10^SURD_DIGITS: sqrt(d) good to
    SURD_DIGITS decimal digits, rounded down."""
    if d < 0:
        raise ValueError("d must be >= 0")
    scale = 10**SURD_DIGITS
    return Fraction(math.isqrt(d * scale * scale), scale)


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
        return cls(to_fraction(alpha), to_fraction(beta))

    @classmethod
    def quadratic(cls, a: int, b: int, d: int, c: int = 1) -> "BeattyParams":
        """alpha = (a + b*sqrt(d)) / c with sqrt(d) from sqrt_fraction, and
        beta = 0."""
        return cls((to_fraction(a) + b * sqrt_fraction(d)) / c)

    @cached_property
    def _integers(self) -> tuple[int, int, int]:
        """(A, B, D): alpha = A/D and beta = B/D over the common denominator
        D = lcm(den alpha, den beta)."""
        (a, b), d = common_denominator([self.alpha_exact.as_integer_ratio(),
                                        self.beta_exact.as_integer_ratio()])
        return a, b, d

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


def fractional_parts(num: int, off: int, den: int, ns: np.ndarray,
                     cuts=()):
    """(whole, x, unsure) for t = (num*n + off)/den at each n of the int64
    array ns, den >= 1: whole = floor(t) and x = t - whole in [0, 1], both
    float64, and the ascending indices whose x lies within the error bound
    delta of 0, of 1 or of some c/den with c in cuts.  Every other index
    has whole == (num*n + off)//den exactly, and x on the same side of
    each c/den as (num*n + off) % den is of c; the caller settles the
    flagged ones on integers.

    This is a filtered-exact predicate, as in Shewchuk's adaptive ones.
    t is n*(num/den) + off/den from the correctly rounded quotients.  With
    u = 2^-53 the conversion of n, the two quotients, the product and the
    sum each err by at most u times their size, so t is within (4 |n num|
    + 2 |off|)/den * u + O(u^2) of the exact value; t - whole adds at most
    u more (it is exact for t >= 0), as does the rounding of c/den.  With
    S = (max|n| |num| + |off|)/den, delta = (S + 4) * 2^-50 = 8 (S + 4) u
    covers all of that, with room for the rounding of delta, 1 - delta and
    c/den +- delta themselves.  So where x lies farther than delta from 0
    and from 1, no integer lies between t and the exact value, and where
    it lies farther than delta from c/den both sit on the same side of it.
    Once S passes about 2^49, delta exceeds 1/2 and every index is
    flagged, so the callers stay exact at any n.
    """
    span = max(-int(ns.min(initial=0)), int(ns.max(initial=0)))
    delta = ((span * abs(num) + abs(off)) / den + 4) * 2.0**-50
    t = ns.astype(np.float64)
    t *= num / den
    t += off / den
    whole = np.floor(t)
    t -= whole
    near = (t <= delta) | (t >= 1 - delta)
    for c in cuts:
        c = c / den
        near |= (t >= c - delta) & (t <= c + delta)
    return whole, t, np.flatnonzero(near)


def beatty_members(params: BeattyParams, lo: int, hi: int) -> np.ndarray:
    """All members of B(alpha, beta) in [lo, hi), ascending, as int64:
    (A*m + B)//D for the indices m >= 1 with D*lo <= A*m + B < D*hi.

    With (c0, r0) = divmod(A*m_lo + B, D), the j-th member is
    c0 + (r0 + j*A)//D: fractional_parts takes that floor in float64 and
    the entries it flags are recomputed on Python ints.
    """
    a, b, d = params._integers
    m_lo = max(1, -((b - d * int(lo)) // a))
    m_hi = -((b - d * int(hi)) // a)
    count = m_hi - m_lo
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if (a * (m_hi - 1) + b) // d > INT64_MAX:
        raise PreconditionError("members beyond the int64 range", hi=hi)
    c0, r0 = divmod(a * m_lo + b, d)
    whole, _, unsure = fractional_parts(a, r0, d,
                                        np.arange(count, dtype=np.int64))
    out = whole.astype(np.int64)
    for j in unsure.tolist():
        out[j] = (r0 + j * a) // d
    out += c0
    return out


def beatty_enumerate(params: BeattyParams, lo: int, hi: int) -> list[int]:
    """beatty_members as a list of Python ints."""
    return beatty_members(params, lo, hi).tolist()


def shift_intersection(interval: TorusInterval, params: BeattyParams, h: int,
                       eps) -> TorusInterval:
    """Arc J with {n in B : n - h in B} = {n >= N + h : gamma*n mod 1 in J}.

    Shifting the membership arc I = (a, a + l] by -h*gamma and intersecting
    with I gives exactly (a, a + l - t] where t = -h*gamma mod 1, provided
    0 < t < 2*eps and 2*eps < l.
    """
    eps = to_fraction(eps)
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
    length = to_fraction(length)
    pts = [to_fraction(x) for x in points]
    if not pts:
        return 0, []
    (arc, *xs), d = common_denominator(x.as_integer_ratio() for x in [length, *pts])
    xs = [x % d for x in xs]
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
