"""Equidistribution error functionals and their scaling harnesses.

The central object is

    E(N, N', gamma, q, a) = sup_I | sum Lambda(n) - (N' - N) |I| / phi(q) |

with n running over [N, N'), n = a mod q, frac(gamma n) in I, and I over
torus arcs of length < 1.  The objective is piecewise linear in the arc
endpoints, so the supremum is determined by endpoint pairs at the data
points frac(gamma n).  The sweep below evaluates every candidate exactly
on Python integers over one common denominator d per window: von Mangoldt
masses are frozen to the rationals of their float values (dyadic, so
both this sweep and any independent oracle see identical numbers), every
position frac(gamma n) has a denominator dividing that of gamma, and d is
the lcm of all of them.  Only the winning candidate of each progression
is turned back into a Fraction.

With the half-open arc convention (z, z + l] and a positive main term the
extremes are approached, not attained: shrinking l toward the minimal
span of a point run (or growing l toward a gap span) improves the value
until the content jumps.  Rows therefore carry the limiting interval and
an attained flag that is False in those cases.

The harnesses evaluate the two distribution-theorem left-hand sides and
the two regularity sums on concrete windows.  Their upper bounds are
asymptotic; nothing here asserts them.  Each harness emits deterministic
normalized columns so that trends across N can be recorded.
"""
from __future__ import annotations

import decimal
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, beatty, dioph
from .beatty import _to_fraction
from .errors import BudgetError, PreconditionError

# Point-visits a harness run may spend on its arc sweep (see
# _check_sweep_budget).  Measured at 3-8 us per visit with Python 3.11 on a
# 2-core x86-64 VM: bv at N = 10^6, q <= 15 is 1.09e6 visits in 4.9 s; bdh
# at N = 10^4, R = 3000 is 7.8e6 visits in 64 s, where rows of one or two
# points dominate.  So the budget is about a minute of work.
HARNESS_POINT_BUDGET = 10**7

# Rows liouville_demo may return, estimated as q_cap (q_cap + 1) / 2 (one
# per reduced class of every q <= q_cap; the true count is about 0.3 q_cap^2).
# Measured at about 20 us per row with its printing: q_cap = 400 at N = 100
# is 48 678 rows in 1.0 s.  So the budget is about ten seconds of rows.
DEMO_ROW_BUDGET = 10**6


@dataclass(frozen=True)
class ErrorRow:
    """One progression's supremal arc error.

    interval is the limiting arc when its limit length lies strictly
    inside (0, 1); it is None for the degenerate limits (a single point
    with length -> 0, or the whole circle with length -> 1).  attained
    records whether some proper arc achieves e exactly; under half-open
    arcs with a positive main term the value is only approached.
    """
    q: int
    a: int
    e: Fraction
    contributing_count: int
    interval: beatty.TorusInterval | None
    attained: bool


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by the distribution harnesses.

    Every grid point N is read on the dyadic window [N, 2N).  q_cap /
    r_cap override the theorem-shaped modulus policies when set.  k, theta
    and params are read by regcond_report only: the tau_{3k} weights, the
    modulus range q <= N^theta, and the Beatty pair whose membership and
    shift arcs it needs.
    """
    gamma: object
    n_grid: tuple
    eps: float = 0.05
    a_power: float = 2.0
    q_cap: int | None = None
    r_cap: int | None = None
    k: int = 2
    theta: float = 0.25
    params: object = None

    def __post_init__(self):
        if not self.n_grid:
            raise PreconditionError("empty N grid")


def lambda_points(n_lo: int, n_hi: int, table=None):
    """(n, Lambda(n)) for prime powers in [n_lo, n_hi); masses are exact
    rational snapshots of log p."""
    if table is not None and table.limit >= n_hi - 1:
        primes = table.primes()
    else:
        primes = np.array(arith.primes_upto(n_hi - 1), dtype=np.int64)
    lo, hi = np.searchsorted(primes, (n_lo, n_hi))
    window = primes[lo:hi].tolist()
    small = primes[:np.searchsorted(primes, math.isqrt(n_hi - 1),
                                    side="right")].tolist()
    out = [(p, Fraction(math.log(p))) for p in window]
    for p in small:
        mass = Fraction(math.log(p))
        power = p * p
        while power < n_hi:
            if power >= n_lo:
                out.append((power, mass))
            power *= p
    out.sort()
    return out


def _sliding_max(values, window: int):
    """For each start i, the j in [i, i+window) with the largest values[j]
    (the last such j on ties)."""
    n = len(values)
    best = [None] * (n - window + 1) if window <= n else []
    dq = deque()
    for j in range(n):
        while dq and values[dq[-1]] <= values[j]:
            dq.pop()
        dq.append(j)
        i = j - window + 1
        if i >= 0:
            while dq[0] < i:
                dq.popleft()
            best[i] = dq[0]
    return best


def _window_points(n_lo: int, n_hi: int, gamma, table=None):
    """(d, points): the prime powers n of [n_lo, n_hi) as triples (n, X, W),
    sorted by X, with frac(gamma n) = X/d and Lambda(n) = W/d over one
    common denominator d = lcm(den gamma, every mass denominator)."""
    g = _to_fraction(gamma)
    pts = lambda_points(n_lo, n_hi, table)
    d = math.lcm(g.denominator, *{lam.denominator for _, lam in pts})
    step = g.numerator * (d // g.denominator)
    points = [(n, step * n % d, lam.numerator * (d // lam.denominator))
              for n, lam in pts]
    points.sort(key=lambda t: t[1])
    return d, points


def _row_from_pairs(pairs, d: int, span: int, phi: int, q: int, a: int) -> ErrorRow:
    """Run the endpoint sweep on one progression's (X, W) pairs, sorted by X.

    Positions X/d and masses W/d are integers over d, and the slope is
    c = span/phi, so every candidate times d*phi is an integer: the mass
    term is prefix*phi (mass) and the length term span*X (span_x).
    Candidates: point runs with infimal covering length (mass-heavy arcs)
    and point gaps with supremal empty length (length-heavy arcs),
    including the wrap-around and the |I| -> 1 limits.
    """
    xs, ws = [], []
    for x, w in pairs:
        if xs and xs[-1] == x:
            ws[-1] += w
        else:
            xs.append(x)
            ws.append(w)
    m_count = len(xs)
    if not m_count:
        return ErrorRow(q, a, Fraction(span, phi), 0, None, False)

    x2 = xs + [x + d for x in xs]
    mass = [0]
    for w in ws + ws:
        mass.append(mass[-1] + w * phi)
    span_x = [span * x for x in x2]

    # mass-heavy: runs i..j, value mass(i..j) - c (x_j - x_i)
    g_vals = [mass[j + 1] - span_x[j] for j in range(2 * m_count)]
    best_g = _sliding_max(g_vals, m_count)
    best = None
    for i in range(m_count):
        j = best_g[i]
        val = g_vals[j] - (mass[i] - span_x[i])
        if best is None or val > best[0]:
            best = (val, "run", i, j)

    # length-heavy: spans i..j excluding both ends, value
    # c (x_j - x_i) - mass strictly inside; j = i + m is the |I| -> 1 limit
    u_vals = [span_x[j] - mass[j] for j in range(2 * m_count)]
    best_u = _sliding_max(u_vals[1:] + [u_vals[0]], m_count)
    for i in range(m_count):
        # window j in [i+1, i+m]: shifted array index i covers it
        j = best_u[i] + 1
        val = u_vals[j] - (span_x[i] - mass[i + 1])
        if val > best[0]:
            best = (val, "gap", i, j)

    val, kind, i, j = best
    length = x2[j] - x2[i]
    count = j - i + 1 if kind == "run" else j - i - 1
    arc = (beatty.TorusInterval(Fraction(xs[i], d), Fraction(length, d))
           if 0 < length < d else None)
    return ErrorRow(q, a, Fraction(val, d * phi), count, arc, False)


def _rows_for_modulus(d: int, points, span: int, q: int) -> dict[int, ErrorRow]:
    """ErrorRow per reduced class a mod q; the points arrive sorted by X,
    so each class's bucket does too."""
    phi = arith.euler_phi(q)
    buckets = {}
    for n, x, w in points:
        buckets.setdefault(n % q, []).append((x, w))
    return {a: _row_from_pairs(buckets.get(a, ()), d, span, phi, q, a)
            for a in range(q) if math.gcd(a, q) == 1}


def e_sup(n: int, n2: int, gamma, q: int, a: int, table=None) -> ErrorRow:
    """Exact supremum of the arc-restricted progression error."""
    if not n < n2 <= 2 * n:
        raise PreconditionError("need N < N2 <= 2N", n=n, n2=n2)
    if q < 1:
        raise PreconditionError("q must be >= 1", q=q)
    if math.gcd(a, q) != 1:
        raise PreconditionError("a must be coprime to q", a=a, q=q)
    d, points = _window_points(n, n2, gamma, table)
    pairs = [(x, w) for m, x, w in points if m % q == a % q]
    return _row_from_pairs(pairs, d, n2 - n, arith.euler_phi(q), q, a)


def _check_sweep_budget(windows) -> None:
    """Refuse a harness run whose arc sweep would exceed HARNESS_POINT_BUDGET
    point-visits, before any window is swept.  windows holds (N, cap) per
    grid point: each modulus q <= cap buckets the window's points (about
    N / log N prime powers in [N, 2N)) and sweeps at most q classes."""
    estimate = sum(cap * (int(n / max(math.log(n), 1.0)) + (cap + 1) // 2)
                   for n, cap in windows)
    if estimate > HARNESS_POINT_BUDGET:
        raise BudgetError(f"the arc sweep needs about {estimate} point-visits, "
                          f"over the budget of {HARNESS_POINT_BUDGET}",
                          estimate=estimate)


def bv_harness(config: HarnessConfig, table=None) -> list[dict]:
    """Large-sieve-flavored left side: per N, sum over q up to the policy
    cap of the worst progression error, with the normalized column
    LHS (log N)^A / N.  Nothing is asserted about decay."""
    plan = []
    for n in config.n_grid:
        if config.q_cap is not None:
            plan.append((n, None, config.q_cap))
        else:
            r = dioph.approx_for_modulus(config.gamma, n).denominator
            plan.append((n, r, int(min(r, n**0.25) * n**-config.eps)))
    _check_sweep_budget((n, q_cap) for n, _, q_cap in plan)
    rows = []
    for n, r, q_cap in plan:
        n_lo, n_hi = n, 2 * n
        big_l = math.log(n)
        d, points = _window_points(n_lo, n_hi, config.gamma, table)
        terms = []
        lhs = Fraction(0)
        for q in range(1, q_cap + 1):
            best = None
            for a, row in sorted(_rows_for_modulus(d, points, n_hi - n_lo, q).items()):
                if best is None or row.e > best.e:
                    best = row
            if best is not None:
                terms.append((q, best.a, float(best.e)))
                lhs += best.e
        rows.append({"n": n, "r": r, "q_cap": q_cap, "lhs": float(lhs),
                     "normalized": float(lhs) * big_l**config.a_power / n,
                     "terms": terms})
    return rows


def bdh_harness(config: HarnessConfig, table=None) -> list[dict]:
    """Variance-flavored left side: per N, sum of E^2 over all progressions
    with q up to R, with the normalized column LHS / (N R log N
    (log log N)^2)."""
    plan = []
    for n in config.n_grid:
        r_cap = config.r_cap
        if r_cap is None:
            r_cap = max(1, int(n / math.log(n)**config.a_power))
        if r_cap > n:
            raise PreconditionError("R must not exceed N", r_cap=r_cap, n=n)
        plan.append((n, r_cap))
    _check_sweep_budget(plan)
    rows = []
    for n, r_cap in plan:
        n_lo, n_hi = n, 2 * n
        big_l = math.log(n)
        d, points = _window_points(n_lo, n_hi, config.gamma, table)
        lhs = Fraction(0)
        per_q = []
        for q in range(1, r_cap + 1):
            sub = Fraction(0)
            for a, row in sorted(_rows_for_modulus(d, points, n_hi - n_lo, q).items()):
                sub += row.e * row.e
            per_q.append((q, float(sub)))
            lhs += sub
        denom = n * r_cap * big_l * math.log(big_l) ** 2
        rows.append({"n": n, "r_cap": r_cap, "lhs": float(lhs),
                     "normalized": float(lhs) / denom, "per_q": per_q})
    return rows


def liouville_demo(r: int = 10, u: int = 3, n: int = 100, q_cap: int = 5,
                   delta: Fraction | None = None, table=None) -> dict:
    """Near-rational avoidance construction and its error lower bound.

    With gamma = u/r + delta and 0 < delta <= 1/(8 r N), every frac(gamma
    m) for m <= 2N stays within 1/(4r) of a multiple of 1/r, so the open
    arc (1/(4r), 3/(4r)) holds no points at all.  The arc has length
    1/(2r), hence E(N, 2N, gamma, q, a) >= N / (2 r phi(q)) for every
    progression, i.e. E^2 >= N^2 / (4 r^2 phi(q)^2) (bound_e2), and summed
    over the phi(q) classes of each q <= q_cap, sum E^2 >= sum_q N^2 /
    (4 r^2 phi(q)) (sum_bound).

    A run whose sweep exceeds HARNESS_POINT_BUDGET point-visits, or whose
    rows exceed DEMO_ROW_BUDGET, is refused with BudgetError first.
    """
    if math.gcd(u, r) != 1:
        raise PreconditionError("u and r must be coprime", u=u, r=r)
    if delta is None:
        delta = Fraction(1, 8 * r * n)
    delta = _to_fraction(delta)
    if not 0 < delta <= Fraction(1, 8 * r * n):
        raise PreconditionError("delta must lie in (0, 1/(8rN)]",
                                delta=float(delta))
    _check_sweep_budget([(n, q_cap)])
    row_estimate = q_cap * (q_cap + 1) // 2
    if row_estimate > DEMO_ROW_BUDGET:
        raise BudgetError(f"q_cap = {q_cap} gives about {row_estimate} rows, "
                          f"over the budget of {DEMO_ROW_BUDGET}",
                          estimate=row_estimate)
    gamma = Fraction(u, r) + delta
    lo, hi = Fraction(1, 4 * r), Fraction(3, 4 * r)
    in_arc = sum(1 for m in range(1, 2 * n + 1) if lo < (gamma * m) % 1 < hi)

    d, points = _window_points(n, 2 * n, gamma, table)
    rows = []
    total = Fraction(0)
    bound_total = Fraction(0)
    all_hold = True
    for q in range(1, q_cap + 1):
        phi = arith.euler_phi(q)
        bound = Fraction(n * n, 4 * r * r * phi * phi)
        for a, row in sorted(_rows_for_modulus(d, points, n, q).items()):
            holds = row.e * row.e >= bound
            all_hold = all_hold and holds
            total += row.e * row.e
            rows.append({"q": q, "a": a, "e": float(row.e),
                         "bound_e2": float(bound), "holds": holds})
            bound_total += bound
    return {"gamma": gamma, "delta": delta, "arc": (lo, hi),
            "points_in_arc": in_arc, "rows": rows,
            "sum_e2": float(total), "sum_bound": float(bound_total),
            "aggregate_holds": total >= bound_total,
            "all_progressions_hold": all_hold and in_arc == 0}


def _class_counts(values, q: int) -> list[int]:
    counts = [0] * q
    for v in values:
        counts[v % q] += 1
    return counts


def _arc_hits(arc: beatty.TorusInterval, gamma: Fraction, ns) -> list[int]:
    """The n of ns with frac(gamma n) in the arc (left, left + length], one
    integer test per n over den = lcm of the arc's and gamma's denominators."""
    den = math.lcm(arc.left.denominator, arc.length.denominator, gamma.denominator)
    g = gamma.numerator * (den // gamma.denominator)
    left = arc.left.numerator * (den // arc.left.denominator)
    length = arc.length.numerator * (den // arc.length.denominator)
    return [n for n in ns if 0 < (g * n - left) % den <= length]


def li_difference(lo, hi) -> float:
    """The integral of 1/log t over [lo, hi] for 1 < lo <= hi (ints, or
    anything float() takes).

    Computed as li(hi) - li(lo) from li(x) = gamma + log log x
    + sum_{n >= 1} (log x)^n / (n n!), where Euler's gamma cancels, in
    decimal at 50 significant digits, and rounded to a float once.
    """
    if not 1 < lo <= hi:
        raise PreconditionError("li_difference needs 1 < lo <= hi",
                                lo=lo, hi=hi)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tiny = decimal.Decimal(10) ** -ctx.prec
        total = decimal.Decimal(0)
        for x, sign in ((hi, 1), (lo, -1)):
            u = decimal.Decimal(x if isinstance(x, int) else float(x)).ln()
            power = decimal.Decimal(1)    # u^n / n!
            series = u.ln()
            n = 0
            while n < u or power > tiny:
                n += 1
                power = power * u / n
                series += power / n
            total += sign * series
        return float(total)


def regcond_report(a_sets: dict, offsets, config: HarnessConfig) -> list[dict]:
    """Empirical left-hand sides of the two regularity sums, per N.

    The first sum weighs, per squarefree q up to N^theta, the worst class
    deviation |#{n in A : n = a mod q} - Y/q| by tau_{3k}(q), with
    Y = gamma N; the second does the same for the primes of A whose
    h_m-shift also lies in A, against Y_{1,m}/phi(q) over classes coprime
    to q, where Y_{1,m} is the length of the shift arc times the integral
    of 1/log t over the window.  Both are normalized by their target
    envelopes Y / L^(k+eps); columns are recorded, never asserted.

    a_sets maps each grid N to the window set A.  config.params is
    required: the shifted memberships are recomputed through the torus
    arc and cross-checked against the set route; mismatches are reported.
    """
    params = config.params
    if params is None:
        raise PreconditionError("regcond_report needs config.params for "
                                "the membership and shift arcs")
    offsets = tuple(sorted(offsets))
    gamma = params.gamma_exact
    base = beatty.membership_interval(params)
    arcs = [base if h == 0 else
            beatty.shift_intersection(base, params, h, gamma * Fraction(config.eps))
            for h in offsets]
    rows = []
    for n in config.n_grid:
        if n not in a_sets:
            raise PreconditionError("a_sets lacks a grid point", n=n)
        n_lo, n_hi = n, 2 * n
        members = sorted(set(a_sets[n]))
        member_set = set(members)
        big_l = math.log(n)
        q_top = max(1, int(n**config.theta))
        y_val = float(_to_fraction(config.gamma) * n)
        envelope = y_val / big_l ** (config.k + config.eps)

        lhs12 = 0.0
        for q in range(1, q_top + 1):
            if arith.mobius(q) == 0:
                continue
            counts = _class_counts(members, q)
            dev = max(abs(cnt - y_val / q) for cnt in counts)
            lhs12 += arith.tau_k(q, 3 * config.k) * dev

        primes = set(arith.primes_upto(n_hi - 1))

        lhs15 = {}
        norm15 = {}
        arc_match = {}
        log_integral = li_difference(n_lo, n_hi)
        for m_idx, (h, arc) in enumerate(zip(offsets, arcs)):
            kept = [p for p in members
                    if p >= n_lo + h and p - h in member_set and p in primes]
            via_arc = _arc_hits(arc, gamma,
                                [p for p in range(n_lo + h, n_hi) if p in primes])
            arc_match[m_idx] = via_arc == kept
            y_gm = float(arc.length) * log_integral
            total = 0.0
            for q in range(1, q_top + 1):
                if arith.mobius(q) == 0:
                    continue
                counts = _class_counts(kept, q)
                phi = arith.euler_phi(q)
                dev = max(abs(counts[a] - y_gm / phi)
                          for a in range(q) if math.gcd(a, q) == 1)
                total += arith.tau_k(q, 3 * config.k) * dev
            lhs15[m_idx] = total
            norm15[m_idx] = total / envelope if envelope else math.inf

        rows.append({"n": n, "q_top": q_top, "y": y_val,
                     "lhs12": lhs12,
                     "norm12": lhs12 / envelope if envelope else math.inf,
                     "lhs15": lhs15, "norm15": norm15,
                     "arc_route_matches": arc_match})
    return rows
