"""Prime-chain decomposition counts over [N, 2N) and the bad-region integrals.

Integers n in a window [N, 2N) are classified through the exponent vector of
their prime factors written as p = (2N)^alpha.  A sequence (alpha_1 >= ... >=
alpha_j) lies in the admissible cone E_j when 1/7 <= alpha_j < ... < alpha_1
<= 1/2 and alpha_1 + ... + alpha_{j-1} + 2 alpha_j <= 1; it is "good" when
some nonempty subsum falls in [2/7, 3/7] or [4/7, 5/7].  The bad pairs form
the region D: in E_2, no good subsum, and alpha_1 + 2 alpha_2 > 5/7.

Everything on the integer side is decided by exact integer comparisons,
never by floating logs.  Each power test of a window becomes a cutoff
computed once by an exact integer root (_chain_cutoffs): z1 = the least z
with z^7 >= 2N, and s^7 >= (2N)^2 iff s >= c2, s^7 <= (2N)^3 iff s <= c3,
likewise c4 and c5 for the powers 4 and 5, and the D boundary
(p1 p2^2)^7 > (2N)^5 iff p1 p2^2 > c5.  The window runs in blocks of
_BLOCK = 4096 values of n on numpy int64 arrays.  Repeated division by
the smallest-prime-factor array of a FactorTable that reaches the window
gives each n's distinct prime factors >= z1 as one row of a width-6
matrix, sorted descending (z1^7 >= 2N > n leaves room for six at most).
A chain p1 > p2 > p3 > p4 is a choice of columns, so the five chain
counts rho_1..rho_5 and the D-indexed sum are masked sums over column
combinations, with no product above (2N)^(3/2) < 3 * 10^12.  They obey
an exact counting identity on every n, which decomposition_check
verifies; every temporary is O(_BLOCK), whatever the window.  The tests
hold the per-n route, with the pair tests as exact powers of Python
integers, as the oracle for the kernel, and the exact classifier of
exponent tuples on Fractions (cone, good windows, D) as the oracle for
those pair tests; they also check that the two triangles below cover D.

The continuous side integrates omega((1 - a1 - a2)/a2) / (a1 * a2^2) over D,
where omega is Buchstab's function.  D decomposes (up to measure zero) into
two triangles; both routes are computed and cross-checked.  On D,
u = (1 - a1 - a2)/a2 stays in [1, 7/3], where omega has the closed forms 1/u
and (1 + ln(u - 1))/u; omega is evaluated nowhere else.  The iterated
Gauss-Legendre rules run in decimal at 36 significant digits (nodes refined
by Newton's method, pieces split at the kink u = 2) and only the final
values are rounded to float: I1, I2 and the D integral come out correctly
rounded.  The reported quadrature_error is the difference between the
floats of two Gauss orders; a requested tolerance is checked against that
gap in decimal plus each value's float rounding error, so a tolerance
finer than float resolution is refused.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np

from . import arith
from .errors import BudgetError, CapacityError, PreconditionError


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


def _chain_cutoffs(two_n: int) -> tuple[int, int, int, int, int, int]:
    """Every exact power test of a window [N, 2N) as an integer cutoff.

    Returns (z1, z2max, c2, c3, c4, c5) with z1 the smallest z with
    z^7 >= 2N, z2max the largest with z^2 < 2N, and for a positive integer s

        s^7 >= (2N)^2  iff  s >= c2,      s^7 <= (2N)^3  iff  s <= c3,
        s^7 >= (2N)^4  iff  s >= c4,      s^7 <= (2N)^5  iff  s <= c5,

    so a subsum lands in a good window iff c2 <= s <= c3 or c4 <= s <= c5,
    and a pair leaves (p1 p2^2)^7 > (2N)^5, the D boundary, iff
    p1 p2^2 > c5.
    """
    return (_int_root(two_n - 1, 7) + 1, math.isqrt(two_n - 1),
            _int_root(two_n**2 - 1, 7) + 1, _int_root(two_n**3, 7),
            _int_root(two_n**4 - 1, 7) + 1, _int_root(two_n**5, 7))


# n per block of the chain kernel: every temporary array is this long (or
# _FACTOR_WIDTH times it), whatever the window.
_BLOCK = 4096
# z1^7 >= 2N > n, so no n of the window has seven prime factors >= z1.
_FACTOR_WIDTH = 6


def _large_prime_factors(ns: np.ndarray, z1: int, spf: np.ndarray) -> np.ndarray:
    """The distinct prime factors >= z1 of each n, one row per n, sorted
    descending and padded with 0.

    Repeated division by the smallest prime factor visits each n's primes
    in ascending order, repeats adjacent, so a factor is new when it
    differs from the one before; rows leave once they reach 1, after at
    most log2(n) rounds.
    """
    out = np.zeros((len(ns), _FACTOR_WIDTH), dtype=np.int64)
    count = np.zeros(len(ns), dtype=np.int64)
    rows = np.arange(len(ns))
    m, last = ns.copy(), np.zeros(len(ns), dtype=np.int64)
    while len(rows):
        p = spf[m].astype(np.int64)
        new = (p >= z1) & (p != last)
        hit = rows[new]
        out[hit, count[hit]] = p[new]
        count[hit] += 1
        m //= p
        live = m > 1
        rows, m, last = rows[live], m[live], p[live]
    return -np.sort(-out, axis=1)


def _block_terms(lo: int, hi: int, two_n: int, spf: np.ndarray) -> np.ndarray:
    """Rows x, d_sum, rho1, ..., rho5 of the chain counts for n in [lo, hi).

    A chain is p1 > p2 > ... among the distinct prime factors of n that
    are >= z1, with p1 <= z2max; the counts weigh each chain's cofactor by
    its roughness (1, or no prime factor below the stated cutoff), and a
    chain whose leading pair lies in D stops there and feeds d_sum.  Each chain is a choice of columns i < j < k < l of the factor
    matrix, so every count is a masked sum over column combinations.
    """
    z1, z2max, c2, c3, c4, c5 = _chain_cutoffs(two_n)
    ns = np.arange(lo, hi, dtype=np.int64)
    fac = _large_prime_factors(ns, z1, spf)
    width = int(np.count_nonzero(fac.any(axis=0)))

    def rough(m, cutoff):
        return (m == 1) | (spf[m] >= cutoff)

    def good(s):
        return ((c2 <= s) & (s <= c3)) | ((c4 <= s) & (s <= c5))

    good_alone = good(fac)
    terms = np.zeros((7, len(ns)), dtype=np.int64)
    x, d_sum, rho1, rho2, rho3, rho4, rho5 = terms
    x += spf[ns] == ns
    rho1 += rough(ns, z1)
    for i in range(width):
        p1 = fac[:, i]
        chain1 = (p1 > 0) & (p1 <= z2max)
        n2 = ns // np.where(chain1, p1, 1)
        rho4 += chain1 & rough(n2, z1)
        for j in range(i + 1, width):
            p2 = fac[:, j]
            chain2 = chain1 & (p2 > 0)
            n3 = n2 // np.where(chain2, p2, 1)
            bound = p1 * p2 * p2
            in_d = (chain2 & (bound <= two_n) & (bound > c5)
                    & ~(good_alone[:, i] | good_alone[:, j] | good(p1 * p2)))
            d_sum += in_d & rough(n3, p2)
            chain2 &= ~in_d
            rho2 += chain2 & rough(n3, z1)
            for k in range(j + 1, width):
                p3 = fac[:, k]
                chain3 = chain2 & (p3 > 0)
                n4 = n3 // np.where(chain3, p3, 1)
                rho5 += chain3 & rough(n4, z1)
                for l in range(k + 1, width):
                    p4 = fac[:, l]
                    chain4 = chain3 & (p4 > 0)
                    rho3 += chain4 & rough(n4 // np.where(chain4, p4, 1), p4)
    return terms


def _window_terms(n_base: int, n_end: int, spf: np.ndarray):
    """_block_terms of [n_base, n_end), one block of _BLOCK n at a time."""
    for lo in range(n_base, n_end, _BLOCK):
        yield _block_terms(lo, min(lo + _BLOCK, n_end), 2 * n_base, spf)


def decomposition_check(n_base: int, n_end: int,
                        table: arith.FactorTable | None = None) -> int:
    """Count of n in [n_base, n_end) violating the exact chain identity.

    The identity states x(n) - d_sum(n) = rho1 + rho2 + rho3 - rho4 - rho5
    with x the prime indicator.  Returns the number of violations (0 on
    every window tested, whatever the D membership rule, since removing a
    chain subtree and counting it separately is exact bookkeeping).  A
    given table must reach n_end - 1; a shorter one is refused before any
    n is checked.  The window runs in blocks of _BLOCK values of n.
    """
    if n_base < 100:
        raise PreconditionError("window base must be >= 100", n_base=n_base)
    if not n_base < n_end <= 2 * n_base:
        raise PreconditionError("need n_base < n_end <= 2*n_base",
                                n_base=n_base, n_end=n_end)
    if table is None:
        table = arith.FactorTable(n_end)
    if table.limit < n_end - 1:
        raise PreconditionError("factor table does not reach the window",
                                n_end=n_end, limit=table.limit)
    bad = 0
    for x, d_sum, rho1, rho2, rho3, rho4, rho5 in _window_terms(n_base, n_end,
                                                                table.spf):
        bad += int(np.count_nonzero(x - d_sum
                                    != rho1 + rho2 + rho3 - rho4 - rho5))
    return bad


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
