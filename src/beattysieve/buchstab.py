"""Prime-chain decomposition counts over [N, 2N) and the bad-region integrals.

Integers n in a window [N, 2N) are classified through the exponent vector of
their prime factors written as p = (2N)^alpha.  A sequence (alpha_1 >= ... >=
alpha_j) lies in the admissible cone E_j when 1/7 <= alpha_j < ... < alpha_1
<= 1/2 and alpha_1 + ... + alpha_{j-1} + 2 alpha_j <= 1; it is "good" when
some nonempty subsum falls in [2/7, 3/7] or [4/7, 5/7].  The bad pairs form
the region D: in E_2, no good subsum, and alpha_1 + 2 alpha_2 > 5/7.

Everything on the integer side is decided by exact power comparisons
(p^7 vs 2N, products vs powers of 2N), never by floating logs.  The
five chain counts rho_1..rho_5 and the D-indexed sum obey an exact
counting identity on every n, which decomposition_check verifies.

The continuous side integrates omega((1 - a1 - a2)/a2) / (a1 * a2^2) over D,
where omega is Buchstab's function.  D decomposes (up to measure zero) into
two triangles; both routes are computed and cross-checked.  On D,
u = (1 - a1 - a2)/a2 stays in [1, 7/3], where omega has the closed forms 1/u
and (1 + ln(u - 1))/u, so the iterated Gauss-Legendre rules run in decimal
at 36 significant digits (nodes refined by Newton's method, pieces split at
the kink u = 2) and only the final values are rounded to float: I1, I2 and
the D integral come out correctly rounded.  The reported quadrature_error
is the difference between the floats of two Gauss orders; a requested
tolerance is checked against that gap in decimal plus each value's float
rounding error, so a tolerance finer than float resolution is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import arith
from .errors import BudgetError, CapacityError, PreconditionError

GOOD_WINDOWS = ((Fraction(2, 7), Fraction(3, 7)), (Fraction(4, 7), Fraction(5, 7)))

# Triangles covering the bad region D, as (alpha1, alpha2) vertices.
# The shallow one has alpha1 <= 2/7, the steep one alpha1 >= 3/7.
TRIANGLE_SHALLOW = ((Fraction(5, 21), Fraction(5, 21)),
                    (Fraction(2, 7), Fraction(3, 14)),
                    (Fraction(2, 7), Fraction(2, 7)))
TRIANGLE_STEEP = ((Fraction(1, 2), Fraction(3, 14)),
                  (Fraction(3, 7), Fraction(2, 7)),
                  (Fraction(1, 2), Fraction(1, 4)))


# ---------------------------------------------------------------------------
# continuum side: exponent-tuple classification

@dataclass(frozen=True)
class ClassifyResult:
    in_ej: bool
    good: bool
    witness: tuple | None  # indices of a good subsum, if any
    in_d: bool


def classify(alphas) -> ClassifyResult:
    """Cone membership, good-subsum search, and bad-region test.

    Input must be sorted non-increasing (at most 4 entries).  Rational
    inputs are decided exactly; floats go through float comparisons.
    """
    vals = list(alphas)
    if not 1 <= len(vals) <= 4:
        raise PreconditionError("need 1 to 4 exponents", count=len(vals))
    exact = all(isinstance(x, Rational) for x in vals)
    if exact:
        vals = [Fraction(x) for x in vals]
        windows = GOOD_WINDOWS
        half, seventh = Fraction(1, 2), Fraction(1, 7)
        one = Fraction(1)
    else:
        vals = [float(x) for x in vals]
        windows = tuple((float(a), float(b)) for a, b in GOOD_WINDOWS)
        half, seventh, one = 0.5, 1 / 7, 1.0
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise PreconditionError("exponents must be sorted non-increasing",
                                alphas=tuple(float(x) for x in vals))

    j = len(vals)
    in_ej = (seventh <= vals[-1] and vals[0] <= half
             and all(vals[i] > vals[i + 1] for i in range(j - 1))
             and sum(vals[:-1], vals[-1] * 0) + 2 * vals[-1] <= one)

    witness = None
    for mask in range(1, 1 << j):
        subsum = sum(vals[i] for i in range(j) if mask >> i & 1)
        if any(lo <= subsum <= hi for lo, hi in windows):
            witness = tuple(i for i in range(j) if mask >> i & 1)
            break
    good = witness is not None

    in_d = (j == 2 and in_ej and not good
            and vals[0] + 2 * vals[1] > 5 * one / 7)
    return ClassifyResult(in_ej, good, witness, in_d)


# ---------------------------------------------------------------------------
# integer side: exact chain counts

def _int_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) in exact integer arithmetic."""
    if n < 0 or k < 1:
        raise PreconditionError("need n >= 0 and k >= 1", n=n, k=k)
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _chain_cutoffs(two_n: int) -> tuple[int, int]:
    """(z1, z2max): smallest integer with z^7 >= 2N, largest with z^2 < 2N."""
    z1 = _int_root(two_n - 1, 7) + 1
    return z1, math.isqrt(two_n - 1)


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
    z1, _ = _chain_cutoffs(two_n)
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

    def rho(self, g: int) -> int:
        return (self.rho1, self.rho2, self.rho3, self.rho4, self.rho5)[g - 1]


def decomposition_terms(n: int, n_base: int,
                        table: arith.FactorTable | None = None) -> DecompositionTerms:
    """All five chain counts plus the D-indexed sum for one n in [N, 2N).

    Chains are strictly decreasing prime divisors p1 > p2 > ..., each at
    least (2N)^(1/7), with p1 below (2N)^(1/2); chain counts weigh the
    cofactor by roughness (psi = no prime factor below the stated cutoff).
    A chain whose leading pair falls in D stops there and feeds d_sum.
    """
    two_n = 2 * n_base
    if not n_base <= n < two_n:
        raise PreconditionError("n must lie in [N, 2N)", n=n, n_base=n_base)
    z1, z2max = _chain_cutoffs(two_n)

    if table is not None and n <= table.limit:
        fac = table.factor
        spf = table.smallest_prime_factor
    else:
        fac = arith.factorize
        spf = lambda m: arith.factorize(m)[0][0]

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


def rho(g: int, n: int, n_base: int,
        table: arith.FactorTable | None = None) -> int:
    """Chain count rho_g(n), g in 1..5, for the window [n_base, 2*n_base)."""
    if g not in (1, 2, 3, 4, 5):
        raise PreconditionError("g must be in 1..5", g=g)
    return decomposition_terms(n, n_base, table).rho(g)


def decomposition_check(n_base: int, n_end: int,
                        table: arith.FactorTable | None = None) -> int:
    """Count of n in [n_base, n_end) violating the exact chain identity.

    The identity states x(n) - d_sum(n) = rho1 + rho2 + rho3 - rho4 - rho5
    with x the prime indicator.  Returns the number of violations (0 on
    every window tested, whatever the D membership rule, since removing a
    chain subtree and counting it separately is exact bookkeeping).
    """
    if n_base < 100:
        raise PreconditionError("window base must be >= 100", n_base=n_base)
    if not n_base < n_end <= 2 * n_base:
        raise PreconditionError("need n_base < n_end <= 2*n_base",
                                n_base=n_base, n_end=n_end)
    if table is None:
        table = arith.FactorTable(n_end)
    bad = 0
    for n in range(n_base, n_end):
        if not decomposition_terms(n, n_base, table).identity_holds:
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# Buchstab's function

_OMEGA_MAX = 8.0
_OMEGA_DEGREE = 60
_omega_pieces: dict = {}


def _omega_closed(u):
    if u <= 2.0:
        return 1.0 / u
    return (1.0 + math.log(u - 1.0)) / u


def _omega_piece(m: int):
    """Chebyshev model of omega on [m, m+1] for m >= 2, built by stepping
    u*omega(u) = m*omega(m) + integral_{m-1}^{u-1} omega."""
    if m in _omega_pieces:
        return _omega_pieces[m]
    cheb = np.polynomial.chebyshev.Chebyshev
    if m == 2:
        piece = cheb.interpolate(lambda u: (1.0 + np.log(u - 1.0)) / u,
                                 _OMEGA_DEGREE, domain=[2, 3])
    else:
        prev = _omega_piece(m - 1)
        accum = prev.integ(lbnd=m - 1)
        at_m = float(prev(m))
        piece = cheb.interpolate(lambda u: (m * at_m + accum(u - 1.0)) / u,
                                 _OMEGA_DEGREE, domain=[m, m + 1])
    _omega_pieces[m] = piece
    return piece


def omega(u) -> float:
    """Buchstab's function: 1/u on [1,2], then (u*omega(u))' = omega(u-1)."""
    u = float(u)
    if u < 1.0:
        raise PreconditionError("omega is defined for u >= 1", u=u)
    if u <= 3.0:
        return _omega_closed(u)
    if u > _OMEGA_MAX:
        raise CapacityError(f"omega continuation tabulated up to {_OMEGA_MAX}")
    m = min(int(math.floor(u)), int(_OMEGA_MAX) - 1)
    if m == u:
        m -= 1
    return float(_omega_piece(m)(u))


# ---------------------------------------------------------------------------
# region integrals, in decimal at _DIGITS significant digits

_DIGITS = 36
_CONTEXT = Context(prec=_DIGITS)
_SEVENTHS = tuple(_CONTEXT.divide(Decimal(k), Decimal(7)) for k in range(6))
_FIVE_21STS = _CONTEXT.divide(Decimal(5), Decimal(21))
_QUARTER, _HALF = Decimal("0.25"), Decimal("0.5")

# ln z on [1, 2] as ln m + 2*atanh(s), s = (z - m)/(z + m), with m = k/64
# the nearest grid point: |s| <= 1/256, so a few odd terms of the atanh
# series reach the working precision.
_LN_GRID = 64
_LN_TABLE = tuple((m, _CONTEXT.ln(m)) for m in
                  (Decimal(k) / _LN_GRID for k in range(_LN_GRID, 2 * _LN_GRID + 1)))
_ATANH_TERMS = math.ceil((_DIGITS / math.log10(4 * _LN_GRID) - 1) / 2)
_ATANH_COEFFS = tuple(_CONTEXT.divide(1, 2 * j + 1)
                      for j in reversed(range(_ATANH_TERMS)))


def _ln(z: Decimal) -> Decimal:
    """ln z for 1 <= z <= 2 at the working precision (see _LN_TABLE)."""
    m, ln_m = _LN_TABLE[round(z * _LN_GRID) - _LN_GRID]
    s = (z - m) / (z + m)
    s2 = s * s
    acc = _ATANH_COEFFS[0]
    for c in _ATANH_COEFFS[1:]:   # Horner in s^2, coefficients 1/(2j+1)
        acc = acc * s2 + c
    return ln_m + (s + s) * acc


def _kink_side_integral(c: Decimal, lo: Decimal, hi: Decimal, nodes, weights) -> Decimal:
    """Gauss rule for the integral over a2 in [lo, hi] of omega(u)/a2^2 with
    u = c/a2 - 1, on a piece that lies on one side of the omega kink u = 2.

    There omega has one closed form, and omega(u)/a2^2 is 1/(a2*(c - a2))
    on [1, 2] and (1 + ln(u - 1))/(a2*(c - a2)) on [2, 3].  u falls as a2
    rises, so the end nodes carry its range; a piece reaching outside
    [1, 3], where neither form holds, is refused rather than extrapolated.
    """
    half = (hi - lo) / 2
    mid = lo + half
    a2s = [mid + half * x for x in nodes]
    u_min, u_max = c / a2s[-1] - 1, c / a2s[0] - 1
    if not (1 <= u_min and u_max <= 3):
        raise CapacityError("closed-form omega covers 1 <= u <= 3, not "
                            f"u in [{u_min:.6g}, {u_max:.6g}]")
    if c / mid <= 3:   # u <= 2 at the midpoint, so across the piece
        total = sum(w / (a2 * (c - a2)) for a2, w in zip(a2s, weights))
    else:
        total = sum(w * (1 + _ln((c - a2 - a2) / a2)) / (a2 * (c - a2))
                    for a2, w in zip(a2s, weights))
    return half * total


# Gauss-Legendre rules at the working precision, by order
_legendre_rules: dict = {}
# Node pairs the iterated rules of one region_integrals call may visit,
# order^2 + (order + 8)^2.  The cost is about 27 us per pair (Python 3.11 on
# a 2-core x86-64 VM: 1.4 s at order 160), so the cap, near order 310, is
# a few seconds of work.
REGION_NODE_PAIR_BUDGET = 200_000
_NEWTON_TOL = Decimal(10) ** (6 - _DIGITS)


def _legendre_eval(n: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = Decimal(1), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1)


def _legendre_node(n: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """Refine the root of P_n near x by Newton's method; return it with its
    weight.  Convergence is quadratic, so once a step is below _NEWTON_TOL
    the root is exact to the working precision."""
    for _ in range(8):
        p, dp = _legendre_eval(n, x)
        step = p / dp
        x -= step
        if abs(step) <= _NEWTON_TOL:
            break
    else:
        raise CapacityError("Newton refinement of the Legendre roots did not "
                            f"converge at order {n}")
    _, dp = _legendre_eval(n, x)
    return x, 2 / ((1 - x * x) * dp * dp)


def _legendre_rule(n: int) -> tuple[tuple[Decimal, ...], tuple[Decimal, ...]]:
    """Nodes and weights of the order-n Gauss-Legendre rule on [-1, 1].

    numpy's float nodes only seed Newton's method, which runs in decimal at
    the working precision.  The rule is symmetric, so the nonnegative roots
    are refined and mirrored.
    """
    if n not in _legendre_rules:
        seeds = np.polynomial.legendre.leggauss(n)[0][n // 2:]
        if n % 2:
            seeds[0] = 0.0   # the middle root of P_n, n odd, is exactly 0
        with localcontext(_CONTEXT):
            half = [_legendre_node(n, Decimal(float(s))) for s in seeds]
        rule = [(x.copy_negate(), w) for x, w in reversed(half) if x] + half
        _legendre_rules[n] = (tuple(x for x, _ in rule),
                              tuple(w for _, w in rule))
    return _legendre_rules[n]


class _GaussRule:
    """The order-n Gauss-Legendre rule at the working precision, applied
    as an iterated rule over the (alpha1, alpha2) plane.

    It keeps the inner pieces it has integrated: the D route retraces the
    pieces of both triangles wherever its sections agree with theirs, and
    reuses those values instead of recomputing the same numbers.
    """

    def __init__(self, n: int):
        self.nodes, self.weights = _legendre_rule(n)
        self._pieces = {}

    def integrate(self, f, lo, hi):
        half = (hi - lo) / 2
        mid = lo + half
        return half * sum(w * f(mid + half * x)
                          for x, w in zip(self.nodes, self.weights))

    def inner(self, a1, lo, hi):
        """Integral over a2 in [lo, hi] of omega((1 - a1 - a2)/a2)/(a1*a2^2),
        split at the omega kink u = 2 so each piece sees one closed form."""
        c = 1 - a1
        kink = c / 3  # u = 2 along a2 = (1 - a1)/3
        cuts = [lo, kink, hi] if lo < kink < hi else [lo, hi]
        total = 0
        for piece in zip(cuts, cuts[1:]):
            key = (c, *piece)
            if key not in self._pieces:
                self._pieces[key] = _kink_side_integral(c, *piece, self.nodes,
                                                        self.weights)
            total += self._pieces[key]
        return total / a1


def _triangle_pieces(kind: str):
    """Outer ranges and a2-sections for the two covering triangles.

    The shallow triangle is split at a1 = 1/4 where the omega kink curve
    enters through its upper edge.
    """
    if kind == "shallow":
        section = lambda a1: ((_SEVENTHS[5] - a1) / 2, a1)
        return ((_FIVE_21STS, _QUARTER, section), (_QUARTER, _SEVENTHS[2], section))
    if kind == "steep":
        section = lambda a1: (_SEVENTHS[5] - a1, (1 - a1) / 2)
        return ((_SEVENTHS[3], _HALF, section),)
    raise PreconditionError("unknown triangle", kind=kind)


def _triangle_integral(kind: str, rule: _GaussRule) -> Decimal:
    return sum(rule.integrate(lambda a1: rule.inner(a1, *section(a1)), lo, hi)
               for lo, hi, section in _triangle_pieces(kind))


def _interval_complement_trim(lo, hi, win_lo, win_hi):
    """Intersect [lo, hi] with the complement of [win_lo, win_hi].

    Returns a list of (lo, hi) pieces."""
    out = []
    if lo < win_lo:
        out.append((lo, min(hi, win_lo)))
    if hi > win_hi:
        out.append((max(lo, win_hi), hi))
    return [(a, b) for a, b in out if b > a]


def _d_sections(a1):
    """alpha2-sections of D at fixed alpha1, straight from its inequalities."""
    if not _SEVENTHS[1] <= a1 <= _HALF:
        return []
    if _SEVENTHS[2] <= a1 <= _SEVENTHS[3]:
        return []  # alpha1 alone is a good subsum
    lo = max(_SEVENTHS[1], (_SEVENTHS[5] - a1) / 2)   # cone floor, a1+2a2 > 5/7
    hi = min(a1, (1 - a1) / 2)                         # ordering, a1+2a2 <= 1
    pieces = [(lo, hi)] if hi > lo else []
    for win_lo, win_hi in ((_SEVENTHS[2], _SEVENTHS[3]),
                           (_SEVENTHS[4], _SEVENTHS[5])):
        # a2 itself must avoid the window
        pieces = [seg for piece in pieces
                  for seg in _interval_complement_trim(*piece, win_lo, win_hi)]
        # and so must a1 + a2
        pieces = [seg for piece in pieces
                  for seg in _interval_complement_trim(*piece,
                                                       win_lo - a1, win_hi - a1)]
    return pieces


def _d_integral(rule: _GaussRule) -> Decimal:
    def outer(a1):
        return sum(rule.inner(a1, lo, hi) for lo, hi in _d_sections(a1))
    # break the outer axis at every corner of the section geometry
    cuts = (_SEVENTHS[1], _FIVE_21STS, _QUARTER, _SEVENTHS[2], _SEVENTHS[3], _HALF)
    return sum(rule.integrate(outer, a, b) for a, b in zip(cuts, cuts[1:]))


def region_integrals(order: int = 24, tol: float = 1e-7) -> dict:
    """Integrals of the bad-region density and the resulting constant b.

    I1 is the integral over the steep triangle (alpha1 >= 3/7), I2 over the
    shallow one; integral_over_D re-derives the domain from the raw
    inequalities as an independent route.  b = 1 - integral_over_D.

    Each route is an iterated Gauss-Legendre rule run in decimal at 36
    significant digits, at `order` and at `order + 8`; only the final
    values are rounded to float, so they come out correctly rounded.
    quadrature_error is the largest difference between the floats the two
    orders give (0.0 once the rule has converged).  The error of a returned
    float is bounded by the decimal difference between the orders plus its
    own rounding error |float(v) - v|; if that bound exceeds tol the
    function refuses rather than report junk.  A tol below a value's
    rounding error (some 1e-18 here) is therefore always refused.  The cost
    grows as order^2; an order past REGION_NODE_PAIR_BUDGET is refused
    with its node-pair count as the estimate, before any rule is built.
    """
    if order < 8:
        raise PreconditionError("order must be >= 8", order=order)
    node_pairs = order**2 + (order + 8) ** 2
    if node_pairs > REGION_NODE_PAIR_BUDGET:
        raise BudgetError(f"order {order} needs {node_pairs} node pairs, over "
                          f"the budget of {REGION_NODE_PAIR_BUDGET}",
                          estimate=node_pairs)
    coarse_rule, fine_rule = _GaussRule(order), _GaussRule(order + 8)
    vals, exact = {}, {}
    spread = 0.0
    order_gap = rounding = bound = Decimal(0)
    with localcontext(_CONTEXT):
        for name, compute in (("I1", lambda r: _triangle_integral("steep", r)),
                              ("I2", lambda r: _triangle_integral("shallow", r)),
                              ("integral_over_D", _d_integral)):
            coarse, exact[name] = compute(coarse_rule), compute(fine_rule)
            vals[name] = float(exact[name])
            spread = max(spread, abs(vals[name] - float(coarse)))
            gap = abs(exact[name] - coarse)
            rnd = abs(Decimal(vals[name]) - exact[name])
            order_gap, rounding = max(order_gap, gap), max(rounding, rnd)
            bound = max(bound, gap + rnd)
        if not float(bound) <= tol:   # a NaN tol is refused too
            raise BudgetError(
                f"error bound {bound:.2e} exceeds tolerance {tol:.2e} (order "
                f"difference {order_gap:.2e}, float rounding {rounding:.2e}); "
                "raise the order, or the tolerance if rounding dominates",
                estimate=float(bound))
        vals["b"] = float(1 - exact["integral_over_D"])
    vals["quadrature_error"] = spread
    return vals


# ---------------------------------------------------------------------------
# triangle containment (closed) for region membership checks

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


@dataclass(frozen=True)
class RegionSpec:
    """A named planar region: one of the covering triangles, the bad set D,
    or the cone E_j."""
    kind: str
    vertices: tuple | None = None
    j: int | None = None

    def contains(self, point) -> bool:
        if self.kind in ("A1", "A2"):
            return triangle_contains(self.vertices, point)
        if self.kind == "D":
            return classify(point).in_d
        if self.kind == "Ej":
            return classify(point).in_ej
        raise PreconditionError("unknown region kind", kind=self.kind)


def region(kind: str, j: int | None = None) -> RegionSpec:
    if kind == "A1":
        return RegionSpec("A1", TRIANGLE_SHALLOW)
    if kind == "A2":
        return RegionSpec("A2", TRIANGLE_STEEP)
    if kind == "D":
        return RegionSpec("D")
    if kind == "Ej":
        return RegionSpec("Ej", j=j)
    raise PreconditionError("unknown region kind", kind=kind)
