"""Continued fractions, best rational approximations, and spacing sums.

Inputs may be floats (converted to their exact binary rational) or Fractions;
pass a high precision Fraction when convergents with large denominators are
needed, since the expansion of a 53-bit rational tracks the underlying real
only while q stays well below 2^26.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .beatty import _to_fraction
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
    g = _to_fraction(gamma)
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


def _floor_pow(n: int, num: int, den: int) -> int:
    """floor(n^(num/den)) for positive integers, exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    target = n**num
    lo, hi = 0, 1
    while hi**den <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**den <= target:
            lo = mid
        else:
            hi = mid
    return lo


def approx_for_modulus(gamma, n: int) -> RationalApprox:
    """Largest convergent denominator r <= n^(3/4) with |gamma - b/r| <= 1/(r n^(3/4)).

    Such a convergent always exists (the next denominator exceeds the cap, and
    consecutive convergents satisfy |gamma - p/q| < 1/(q q')).  The comparison
    against the irrational cap is done on fourth powers, exactly.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2", n=n)
    g = _to_fraction(gamma)
    cap = _floor_pow(n, 3, 4)
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


def distance_to_integer(x: Fraction) -> Fraction:
    f = x % 1
    return min(f, 1 - f)


def type_margin(gamma, r_max: int, exponent: int) -> tuple[float, int]:
    """min over 1 <= r <= r_max of r^exponent * ||gamma r||, with the argmin."""
    if r_max < 1:
        raise PreconditionError("r_max must be >= 1", r_max=r_max)
    g = _to_fraction(gamma)
    best = None
    best_r = None
    for r in range(1, r_max + 1):
        val = r**exponent * distance_to_integer(g * r)
        if best is None or val < best:
            best, best_r = val, r
    return float(best), best_r


@dataclass(frozen=True)
class SpacingSum:
    value: float
    clamped: int  # how many terms hit the min(R, .) clamp
    zero_spacings: int  # terms with ||m beta|| = 0, counted at R and flagged


def spacing_sum(beta, m_start: int, m_count: int, cap) -> SpacingSum:
    """sum_{m = m_start+1}^{m_start+m_count} min(cap, 1/||m beta||)."""
    if m_count < 1 or m_start < 0:
        raise PreconditionError("need m_start >= 0, m_count >= 1")
    b = _to_fraction(beta)
    total = 0.0
    clamped = zero = 0
    for m in range(m_start + 1, m_start + m_count + 1):
        d = distance_to_integer(b * m)
        if d == 0:
            zero += 1
            clamped += 1
            total += float(cap)
            continue
        recip = 1 / float(d)
        if recip >= cap:
            clamped += 1
            total += float(cap)
        else:
            total += recip
    return SpacingSum(total, clamped, zero)


def _approx_with_height(beta: Fraction, m_cap: int) -> tuple[int, int, float]:
    """Convergent u/r with r <= m_cap, plus height H = max(1, r^2 |beta - u/r|)."""
    seq = convergents(beta % 1, 64)
    chosen = seq[0]
    for approx in seq:
        if 1 <= approx.denominator <= m_cap:
            chosen = approx
    u, r = chosen.numerator, chosen.denominator
    height = max(1.0, float(chosen.quality * r * r))
    return u, r, height


def spacing_bound_report(beta, m_values, cap_values) -> list[dict]:
    """Empirical ratios of spacing_sum against (H M / r + 1)(cap + r log 2r).

    One row per (M, cap) pair; r and H come from the best convergent with
    denominator <= M.  Ratios are recorded, not asserted.
    """
    b = _to_fraction(beta)
    rows = []
    for m_count in m_values:
        u, r, height = _approx_with_height(b, m_count)
        for cap in cap_values:
            lhs = spacing_sum(b, 0, m_count, cap).value
            rhs = (height * m_count / r + 1.0) * (cap + r * math.log(2 * r))
            rows.append({"M": m_count, "cap": cap, "r": r, "H": height,
                         "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    return rows


def reciprocal_sum_report(beta, r: int | None = None, m_count: int | None = None) -> dict:
    """Ratio of sum_{m <= M} 1/||m beta|| against r log 2r, M about r/2.

    Requires M |beta - u/r| <= 1/(2r) so no term degenerates.
    """
    b = _to_fraction(beta)
    if r is None:
        u, r, _ = _approx_with_height(b, 10**6)
    else:
        u = round(float(b) * r)
    if m_count is None:
        m_count = max(1, r // 2)
    if m_count * abs(b - Fraction(u, r)) > Fraction(1, 2 * r):
        raise PreconditionError("M |beta - u/r| exceeds 1/(2r)", r=r, m=m_count)
    total = 0.0
    for m in range(1, m_count + 1):
        d = distance_to_integer(b * m)
        if d == 0:
            raise PreconditionError("zero spacing inside the guarded range", m=m)
        total += 1 / float(d)
    rhs = r * math.log(2 * r)
    return {"M": m_count, "r": r, "lhs": total, "rhs": rhs, "ratio": total / rhs}
