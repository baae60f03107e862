"""Equidistribution error functionals and their scaling harnesses.

The central object is

    E(N, N', gamma, q, a) = sup_I | sum Lambda(n) - (N' - N) |I| / phi(q) |

with n running over [N, N'), n = a mod q, frac(gamma n) in I, and I over
torus arcs of length < 1.  The objective is piecewise linear in the arc
endpoints, so the supremum is determined by endpoint pairs at the data
points frac(gamma n).  Von Mangoldt masses are frozen to the rationals of
their float values (dyadic, so this sweep and any independent oracle see
identical numbers), every position frac(gamma n) has a denominator
dividing that of gamma, and one common denominator d per window is the
lcm of all of them.  When d is a power of two up to 2^63, as for every
float gamma whose lowest set bit is at least 2^-63, the window is built
in numpy on uint64 words; any other d keeps Python ints.  The sweep
scores every candidate of every class of a modulus in one float64 numpy
pass, then re-evaluates the few candidates within the pass's error bound
of each class's best on Python integers over d, so the rows are exact.
That is the one exact route, however many candidates pass.

A row stays an integer numerator over d phi(q), the denominator every
class of q shares.  bv_harness compares those integers and makes one
Fraction per modulus, bdh_harness sums their squares into one integer
over (d phi(q))^2 per modulus, and only e_sup turns a row into an
ErrorRow with its arc.

With the half-open arc convention (z, z + l] and a positive main term the
extremes are approached, not attained: shrinking l toward the minimal
span of a point run (or growing l toward a gap span) improves the value
until the content jumps.  Rows therefore carry the limiting interval and
an attained flag that is False in those cases.

The harnesses evaluate the two distribution-theorem left-hand sides and
the two regularity sums on concrete windows, with asymptotic upper bounds
that nothing here asserts, in deterministic normalized columns that record
trends across N; the Liouville demo counts its empty arc by arith.least_hit.
"""
from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, beatty, dioph
from .errors import BudgetError, PreconditionError

# Point-visits a harness run may spend on its arc sweep (see
# _check_sweep_budget).  Measured with Python 3.11 on a 2-core x86-64 VM:
# bv at N = 10^6, q <= 15 is 1.09e6 visits in 0.38-0.53 s (0.4 us each);
# bdh at N = 10^4 is 3.7e5 visits in 0.06-0.09 s at R = 300 (0.2 us) and
# 7.8e6 visits in 8.2-10.9 s at R = 3000 (1.2 us), where rows of one or two
# points dominate and each row's Python work costs more than its points.
# So the budget is about 10-14 s of the slowest work.
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
    r_cap override the theorem-shaped modulus policies when set; eps
    enters bv's policy only.
    """
    gamma: object
    n_grid: tuple
    eps: float = 0.05
    a_power: float = 2.0
    q_cap: int | None = None
    r_cap: int | None = None

    def __post_init__(self):
        if not self.n_grid:
            raise PreconditionError("empty N grid")
        if min(self.n_grid) < 2:
            # bdh normalizes by log log N, bv's modulus policy needs N >= 2
            raise PreconditionError("every grid point N must be >= 2",
                                    n=min(self.n_grid))
        for name in ("q_cap", "r_cap"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise PreconditionError(f"{name} must be >= 1", **{name: cap})


def lambda_points(n_lo: int, n_hi: int, table=None):
    """(n, Lambda(n)) for prime powers in [n_lo, n_hi), ascending in n; each
    mass is the float math.log(p) of the root p, an exact dyadic rational."""
    root = math.isqrt(n_hi - 1)
    if table is not None and table.limit >= n_hi - 1:
        primes = table.primes()
        lo, hi, top = np.searchsorted(primes, (n_lo, n_hi, root + 1))
        window, small = primes[lo:hi], primes[:top]
    else:
        window, small = arith.primes_in(n_lo, n_hi), arith.primes_in(2, root + 1)
    out = [(p, math.log(p)) for p in window.tolist()]
    for p in small.tolist():
        mass = math.log(p)
        power = p * p
        while power < n_hi:
            if power >= n_lo:
                out.append((power, mass))
            power *= p
    out.sort()
    return out


@dataclass(frozen=True)
class _Window:
    """The prime powers of one window, sorted by X (ties keep n order).

    frac(gamma n) = xs[k] / d exactly, x[k] is that ratio correctly
    rounded, and xid[k] numbers the distinct X in order.  Lambda(n) =
    mass[k] = wm[k] / mass_den exactly, with mass_den (a power of two)
    dividing d.  n, xid and wm are int64 arrays, x and mass float64 ones;
    xs is a uint64 array when d <= 2^63 is a power of two, and an object
    array of Python ints otherwise.
    """
    d: int
    mass_den: int
    xs: np.ndarray
    n: np.ndarray
    xid: np.ndarray
    x: np.ndarray
    mass: np.ndarray
    wm: np.ndarray


def _window_points(n_lo: int, n_hi: int, gamma, table=None) -> _Window:
    """The window [n_lo, n_hi) over one common denominator d = lcm(den
    gamma, 2^53); nothing per point is a Fraction.  2^53 is a mass
    denominator for every point: each mass is log p >= log 2 > 1/2, a
    double whose denominator divides 2^53.

    When d is a power of two up to 2^63 (every float gamma whose lowest
    set bit is at least 2^-63) X = step n mod d is a wrapping uint64
    product masked to its low bits and the window is built in numpy;
    otherwise X, its sort and X / d are taken on Python ints.
    """
    pts = lambda_points(n_lo, n_hi, table)
    mass_den = 1 << 53
    (step, _), d = arith.common_denominator(
        [arith.to_fraction(gamma).as_integer_ratio(), (1, mass_den)])
    n = np.array([m for m, _ in pts], dtype=np.int64)
    mass = np.array([lam for _, lam in pts], dtype=np.float64)
    in_word = d & (d - 1) == 0 and d <= 1 << 63
    if in_word:
        xs = n.astype(np.uint64) * np.uint64(step % d) & np.uint64(d - 1)
    else:
        xs = np.array([step * m % d for m in n.tolist()], dtype=object)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    # X / d correctly rounded: d is a power of two on the uint64 route
    x = (xs.astype(np.float64) / d if in_word
         else np.array([v / d for v in xs.tolist()], dtype=np.float64))
    xid = np.zeros(len(xs), dtype=np.int64)
    np.cumsum(xs[1:] != xs[:-1], out=xid[1:])
    mass = mass[order]
    # mass * mass_den < 2^59 while log p < 64, so wm is exact in int64
    return _Window(d, mass_den, xs, n[order], xid, x, mass,
                   (mass * mass_den).astype(np.int64))


def _scores(prefix, cx, lap):
    """Every row's best score per arc start and per arc end, as six planes.

    In units of mass, with P = prefix the prefix masses (width + 1 columns
    per row), cx = c x_j (inf past the row's end) and lap = total - c, a
    run i..j scores g[j] - h[i] and a gap between i and j scores
    g[i] - h[j], where g[j] = P[j+1] - c x_j and h[i] = P[i] - c x_i; on the
    second lap round the circle g and h gain lap.  So the best partner of
    every start i, and of every end j on either lap, is one prefix or
    suffix max of g or min of h.  Planes 0-2 hold the best run per start,
    per end on the first lap and per end on the second; planes 3-5 the
    same for gaps.  The planes are float64, -inf past a row's end.
    """
    g = prefix[:, 1:] - cx
    h = prefix[:, :-1] - cx
    h[cx == np.inf] = np.inf
    n_rows, width = g.shape
    g_before = np.full((n_rows, width), -np.inf)
    np.maximum.accumulate(g[:, :-1], axis=1, out=g_before[:, 1:])
    g_from = np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    h_to = np.minimum.accumulate(h, axis=1)
    h_after = np.full((n_rows, width), np.inf)
    h_after[:, :-1] = np.minimum.accumulate(h[:, :0:-1], axis=1)[:, ::-1]
    score = np.empty((n_rows, 6, width))
    np.subtract(np.maximum(g_from, g_before + lap), h, out=score[:, 0])
    np.subtract(g, h_to, out=score[:, 1])
    np.subtract(g + lap, h_after, out=score[:, 2])
    np.subtract(g, np.minimum(h_after, h_to + lap), out=score[:, 3])
    np.subtract(g_before, h, out=score[:, 4])
    np.subtract(g_from, h + lap, out=score[:, 5])
    return score


def _rows_for_modulus(w: _Window, span: int, q: int, a: int | None = None
                      ) -> tuple[int, tuple, dict[int, tuple]]:
    """(phi, empty, winners): phi(q), and the exact winner of every reduced
    class mod q that holds a point of the window, or of the class of a
    alone, keyed by residue.

    A winner is (val, count, left, dx): its error is val / (d phi), and the
    run (or gap) behind it holds count merged points on the arc from
    left / d of length dx / d.  A class without points is left out of
    winners; its winner is empty, the gap of the whole circle, whose error
    is span / phi.

    One numpy pass covers every class of q at once.  A stable argsort by
    n mod q buckets the window (each bucket stays sorted by X), equal X
    within a class merge, and the classes become the rows of padded 2-D
    float64 arrays, which _scores scores with c = span/phi.

    The scores are floats, and a row of n points has them within
    (3.03 n + 17) 2^-53 (total + c) of the truth (Higham's gamma_n for the
    prefix sums, a few roundings for the rest); delta below is about twice
    that.  An exact maximiser scores at least the float maximum - 2 delta,
    so its start and its end both pass that floor.  Every pairing of a
    passing start with a passing end is evaluated on Python integers over
    d*phi by _Exact.best, the one exact route, whatever their number.
    """
    phi = arith.euler_phi(q)
    empty = (span * w.d, 0, 0, w.d)
    residue = w.n % q
    if q < 1 << 16:
        residue = residue.astype(np.uint16)   # numpy radix-sorts 16 bits
    order = np.argsort(residue, kind="stable")
    residue = residue[order]
    keep = residue == a % q if a is not None else np.gcd(residue, q) == 1
    order, residue = order[keep], residue[keep]
    if not order.size:
        return phi, empty, {}
    # merged points (their first bucket positions) and rows of them
    xid = w.xid[order]
    first = np.ones(order.size + 1, dtype=bool)
    first[1:-1] = (residue[1:] != residue[:-1]) | (xid[1:] != xid[:-1])
    bounds = np.flatnonzero(first)
    seg = bounds[:-1]
    row_first = np.ones(seg.size, dtype=bool)
    row_first[1:] = residue[seg[1:]] != residue[seg[:-1]]
    row_start = np.flatnonzero(row_first)
    row_of = np.cumsum(row_first) - 1
    m = np.bincount(row_of)
    col = np.arange(seg.size) - row_start[row_of]
    n_rows, width = m.size, int(m.max())

    c = span / phi
    prefix = np.zeros((n_rows, width + 1))
    prefix[row_of, col + 1] = np.add.reduceat(w.mass[order], seg)
    np.cumsum(prefix, axis=1, out=prefix)
    total = prefix[np.arange(n_rows), m]
    cx = np.full((n_rows, width), np.inf)
    cx[row_of, col] = c * w.x[order[seg]]
    score = _scores(prefix, cx, (total - c)[:, None])
    n_points = bounds[row_start + m] - bounds[row_start]
    delta = (3 * n_points + 32) * 2.0**-52 * (total + c)
    floor = score.max(axis=(1, 2)) - 2 * delta
    hits = zip(*(idx.tolist()
                 for idx in np.nonzero(score >= floor[:, None, None])))
    hit = next(hits, None)

    wm = w.wm[order]
    if bounds.size <= order.size:
        # some points merged; their sums may pass int64, so add on ints
        wm = np.add.reduceat(wm.astype(object), seg)
    exact = _Exact(w.d, span, phi * (w.d // w.mass_den), w.xs[order[seg]].tolist(),
                   list(itertools.accumulate(wm.tolist(), initial=0)))
    rows = {}
    for r, (start, count, label) in enumerate(zip(
            row_start.tolist(), m.tolist(), residue[seg[row_start]].tolist())):
        sets = ([], [], [], [], [], [])
        while hit is not None and hit[0] == r:
            sets[hit[1]].append(hit[2])
            hit = next(hits, None)
        rows[label] = exact.best(start, count, sets)
    return phi, empty, rows


@dataclass(frozen=True)
class _Exact:
    """One modulus's merged points on Python integers, for the exact
    re-check.

    Merged points are numbered across the rows of the modulus: point k
    sits at xs[k] / d, and the points before it weigh pm[k] / mass_den.
    Scores are integers over d*phi, in which one unit of mass is scale =
    phi d / mass_den.
    """
    d: int
    span: int
    scale: int
    xs: list
    pm: list

    def best(self, start, count, sets) -> tuple:
        """The exact winner among one row's candidate runs and gaps, given
        as six sets like the planes of _scores, as (val, count, left, dx)
        of _rows_for_modulus.  Ties go to a run, then to the first start,
        then to the last end, counting an end j on the second lap as
        j + count."""
        runs_i, runs_j0, runs_j1, gaps_i, gaps_j0, gaps_j1 = sets
        xs, pm = self.xs[start:start + count], self.pm[start:start + count + 1]
        total = pm[-1] - pm[0]
        best = None
        for kind, starts, ends in (
                (1, runs_i, runs_j0 + [j + count for j in runs_j1]),
                (0, gaps_i, gaps_j0 + [j + count for j in gaps_j1])):
            for i in starts:
                for j in ends:
                    if not (i <= j < i + count if kind else i < j <= i + count):
                        continue
                    wrap = j >= count
                    jj = j - count if wrap else j
                    dx = xs[jj] - xs[i] + (self.d if wrap else 0)
                    # the mass of the run i..j, or strictly inside the gap;
                    # across the lap, the total less the points left out
                    if kind:
                        lo, hi = (jj + 1, i) if wrap else (i, jj + 1)
                    else:
                        lo, hi = (jj, i + 1) if wrap else (i + 1, jj)
                    inside = pm[hi] - pm[lo]
                    if wrap:
                        inside = total - inside
                    val = (self.scale * inside - self.span * dx if kind
                           else self.span * dx - self.scale * inside)
                    key = (val, kind, -i, j, dx)
                    if best is None or key > best:
                        best = key
        val, kind, i, j, dx = best
        i = -i
        return val, j - i + 1 if kind else j - i - 1, xs[i], dx


def e_sup(n: int, n2: int, gamma, q: int, a: int, table=None) -> ErrorRow:
    """Exact supremum of the arc-restricted progression error."""
    if not n < n2 <= 2 * n:
        raise PreconditionError("need N < N2 <= 2N", n=n, n2=n2)
    if q < 1:
        raise PreconditionError("q must be >= 1", q=q)
    if math.gcd(a, q) != 1:
        raise PreconditionError("a must be coprime to q", a=a, q=q)
    w = _window_points(n, n2, gamma, table)
    phi, empty, winners = _rows_for_modulus(w, n2 - n, q, a)
    val, count, left, dx = winners.get(a % q, empty)
    arc = (beatty.TorusInterval(Fraction(left, w.d), Fraction(dx, w.d))
           if 0 < dx < w.d else None)
    return ErrorRow(q, a, Fraction(val, w.d * phi), count, arc, False)


def _check_sweep_budget(windows) -> None:
    """Refuse a harness run whose arc sweep would exceed HARNESS_POINT_BUDGET
    point-visits, before any window is swept.  windows holds (N, cap) per
    grid point: each modulus q <= cap buckets the window's points (about
    N / log N prime powers in [N, 2N)) and sweeps at most q classes."""
    estimate = sum(
        cap * (int(n / max(math.log(n), 1.0)) + (cap + 1) // 2) for n, cap in windows)
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
        window = _window_points(n_lo, n_hi, config.gamma, table)
        terms = []
        lhs = Fraction(0)
        for q in range(1, q_cap + 1):
            phi, empty, winners = _rows_for_modulus(window, n_hi - n_lo, q)
            # the least a of the largest e wins
            val, minus_a = max((winners.get(b, empty)[0], -b)
                               for b in range(q) if math.gcd(b, q) == 1)
            e = Fraction(val, window.d * phi)
            terms.append((q, -minus_a, float(e)))
            lhs += e
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
        window = _window_points(n_lo, n_hi, config.gamma, table)
        d = window.d
        lhs = Fraction(0)
        per_q = []
        for q in range(1, r_cap + 1):
            phi, empty, winners = _rows_for_modulus(window, n_hi - n_lo, q)
            # every e is val / (d phi); phi - len(winners) classes are empty
            sub = Fraction(sum(val * val for val, *_ in winners.values())
                           + (phi - len(winners)) * empty[0] ** 2, (d * phi) ** 2)
            per_q.append((q, float(sub)))
            lhs += sub
        denom = n * r_cap * big_l * math.log(big_l) ** 2
        rows.append({"n": n, "r_cap": r_cap, "lhs": float(lhs),
                     "normalized": float(lhs) / denom, "per_q": per_q})
    return rows


def liouville_demo(r: int = 10, u: int = 3, n: int = 100, q_cap: int = 5) -> dict:
    """Near-rational avoidance construction and its error lower bound.

    With gamma = u/r + delta and delta = 1/(8 r N), every frac(gamma m)
    for m <= 2N stays within 1/(4r) of a multiple of 1/r, so the open
    arc (1/(4r), 3/(4r)) holds no points at all.  The arc has length
    1/(2r), hence E(N, 2N, gamma, q, a) >= N / (2 r phi(q)) for every
    progression, i.e. E^2 >= N^2 / (4 r^2 phi(q)^2) (bound_e2), and summed
    over the phi(q) classes of each q <= q_cap, sum E^2 >= sum_q N^2 /
    (4 r^2 phi(q)) (sum_bound).

    A run over HARNESS_POINT_BUDGET point-visits (its sweep alone) or
    DEMO_ROW_BUDGET rows is refused with BudgetError first.
    """
    if math.gcd(u, r) != 1:
        raise PreconditionError("u and r must be coprime", u=u, r=r)
    if n < 1 or r < 1:
        raise PreconditionError("need n >= 1 and r >= 1", n=n, r=r)
    a, den = 8 * u * n + 1, 8 * r * n   # gamma = a/den, arc (2N, 6N)/den
    delta, gamma = Fraction(1, den), Fraction(a, den)
    _check_sweep_budget([(n, q_cap)])
    row_estimate = q_cap * (q_cap + 1) // 2
    if row_estimate > DEMO_ROW_BUDGET:
        raise BudgetError(f"q_cap = {q_cap} gives about {row_estimate} rows, "
                          f"over the budget of {DEMO_ROW_BUDGET}",
                          estimate=row_estimate)
    lo, hi = Fraction(1, 4 * r), Fraction(3, 4 * r)
    in_arc, m = 0, 1   # hits so far, and the least m not yet tried
    while ((x := arith.least_hit(a, a * m, den, 2 * n + 1, 6 * n - 1))
           is not None and m + x <= 2 * n):
        in_arc, m = in_arc + 1, m + x + 1

    window = _window_points(n, 2 * n, gamma)
    rows = []
    total = Fraction(0)
    bound_total = Fraction(0)
    all_hold = True
    for q in range(1, q_cap + 1):
        phi, empty, winners = _rows_for_modulus(window, n, q)
        bound = Fraction(n * n, 4 * r * r * phi * phi)
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            e = Fraction(winners.get(a, empty)[0], window.d * phi)
            holds = e * e >= bound
            all_hold = all_hold and holds
            total += e * e
            rows.append({"q": q, "a": a, "e": float(e),
                         "bound_e2": float(bound), "holds": holds})
            bound_total += bound
    return {"gamma": gamma, "delta": delta, "arc": (lo, hi),
            "points_in_arc": in_arc, "rows": rows,
            "sum_e2": float(total), "sum_bound": float(bound_total),
            "aggregate_holds": total >= bound_total,
            "all_progressions_hold": all_hold and in_arc == 0}


def _class_counts(values: np.ndarray, moduli) -> list[np.ndarray]:
    """np.bincount(values % q, minlength=q) for each q of moduli, in order.

    Consecutive moduli share one pass while their lcm M stays <= the
    number of values, so no bincount outgrows the array it counts (a
    modulus above that gets a pass of its own): one values % M, one
    bincount of length M, and the classes mod each q | M are the sums of
    the M counts over r = c mod q, taken as rows of a contiguous (q, M/q)
    copy.  The counts are the same integers as the per-q bincounts.
    """
    counts = []
    start = 0
    while start < len(moduli):
        big, stop = moduli[start], start + 1
        while stop < len(moduli) and math.lcm(big, moduli[stop]) <= values.size:
            big = math.lcm(big, moduli[stop])
            stop += 1
        per_big = np.bincount(values % big, minlength=big)
        for q in moduli[start:stop]:
            counts.append(np.ascontiguousarray(per_big.reshape(-1, q).T).sum(axis=1))
        start = stop
    return counts


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


def regcond_report(offsets, params: beatty.BeattyParams, n_grid, theta: float,
                   k: int, eps) -> list[dict]:
    """Empirical left-hand sides of the two regularity sums, per N.

    The first sum weighs, per squarefree q up to N^theta, the worst class
    deviation |#{n in A : n = a mod q} - Y/q| by tau_{3k}(q), with
    Y = gamma N; the second does the same for the primes of A whose
    h_m-shift also lies in A, against Y_{1,m}/phi(q) over classes coprime
    to q, where Y_{1,m} is the length of the shift arc times the integral
    of 1/log t over the window.  Both are normalized by their target
    envelopes Y / L^(k+eps); columns are recorded, never asserted.

    A is the Beatty set of params on each window [N, 2N), and the primes
    are sieved on that window alone.  Members and primes of A are two
    boolean masks of the window (2N bytes, each mask the size of
    primes_in's own block), so "n is prime" and "n - h in A" are slices,
    for any offset h.  The class counts of the members and of the kept
    primes of each offset come from _class_counts: one residue pass per
    group of moduli whose lcm stays within the array's length, and the
    same integers as one bincount per q.  gamma (in Y and in the arcs) is
    the exact gamma of params, whose membership and shift arcs the second
    sum needs: the shifted memberships are recomputed through the torus
    arc, independent of the masks, on the primes the masks can hold (n and
    n - h both in the window), and cross-checked against them; mismatches
    are reported.  With gamma and the arc (left, left + length] over one
    common denominator den, n is on the arc iff 0 < (g n - left) mod den
    <= length, which beatty.arc_mask decides exactly.
    """
    if not n_grid:
        raise PreconditionError("empty N grid")
    offsets = tuple(sorted(offsets))
    gamma = params.gamma_exact
    base = beatty.membership_interval(params)
    arcs = [base if h == 0 else
            beatty.shift_intersection(base, params, h, gamma * arith.to_fraction(eps))
            for h in offsets]
    rows = []
    for n in n_grid:
        n_lo, n_hi = n, 2 * n
        members = beatty.beatty_members(params, n_lo, n_hi)
        big_l = math.log(n)
        q_top = max(1, int(n**theta))
        y_val = float(gamma * n)
        envelope = y_val / big_l ** (k + eps)
        moduli = [(q, arith.tau_k(q, 3 * k)) for q in range(1, q_top + 1)
                  if arith.mobius(q) != 0]
        qs = [q for q, _ in moduli]

        lhs12 = 0.0
        for (q, tau), counts in zip(moduli, _class_counts(members, qs)):
            lhs12 += tau * float(np.max(np.abs(counts - y_val / q)))

        # the window [n_lo, n_hi) as two boolean masks, members of A and
        # primes of A, indexed by n - n_lo
        primes = arith.primes_in(n_lo, n_hi)
        in_a = np.zeros(n, dtype=bool)
        in_a[members - n_lo] = True
        prime_in_a = np.zeros(n, dtype=bool)
        prime_in_a[primes - n_lo] = True
        prime_in_a &= in_a

        lhs15 = {}
        norm15 = {}
        arc_match = {}
        log_integral = li_difference(n_lo, n_hi)
        for m_idx, (h, arc) in enumerate(zip(offsets, arcs)):
            # the primes n of A with n - h in A: window positions i with
            # 0 <= i - h < n; the arc route tests the primes at the same i
            lo_i = max(h, 0)
            hi_i = max(lo_i, min(n, n + h))
            kept = n_lo + lo_i + np.flatnonzero(
                prime_in_a[lo_i:hi_i] & in_a[lo_i - h:hi_i - h])
            tested = primes[np.searchsorted(primes, n_lo + lo_i):
                            np.searchsorted(primes, n_lo + hi_i)]
            (g, left, length), den = arith.common_denominator(
                x.as_integer_ratio() for x in (gamma, arc.left, arc.length))
            via_arc = tested[beatty.arc_mask(g, -left, den, tested, length)]
            arc_match[m_idx] = np.array_equal(via_arc, kept)
            y_gm = float(arc.length) * log_integral
            total = 0.0
            for (q, tau), counts in zip(moduli, _class_counts(kept, qs)):
                coprime = np.gcd(np.arange(q), q) == 1
                dev = np.max(np.abs(counts[coprime] - y_gm / arith.euler_phi(q)))
                total += tau * float(dev)
            lhs15[m_idx] = total
            norm15[m_idx] = total / envelope if envelope else math.inf

        rows.append({"n": n, "q_top": q_top, "y": y_val,
                     "lhs12": lhs12,
                     "norm12": lhs12 / envelope if envelope else math.inf,
                     "lhs15": lhs15, "norm15": norm15,
                     "arc_route_matches": arc_match})
    return rows
