"""Per-point routes for beattysieve.equidist.regcond_report, kept to check
it against.

The package tests the arc through a float filter with an integer fallback,
joins members, primes and shifts through boolean masks of the window, and
counts residue classes in one pass per group of moduli; these are the
routes it replaced: one integer modulo per n, np.isin sort-joins and one
bincount per modulus.
"""
import math

import numpy as np

from beattysieve import arith, beatty
from beattysieve.equidist import li_difference


def arc_hits(arc, gamma, ns) -> list[int]:
    """The n of ns with frac(gamma n) in the arc (left, left + length], one
    integer test per n over den = lcm of the arc's and gamma's
    denominators."""
    (g, left, length), den = arith.common_denominator(
        x.as_integer_ratio() for x in (gamma, arc.left, arc.length))
    return [n for n in ns if 0 < (g * n - left) % den <= length]


def regcond_report(offsets, params, n_grid, theta, k, eps) -> list[dict]:
    """regcond_report's rows, from per-q bincounts and np.isin joins."""
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
        lhs12 = 0.0
        for q, tau in moduli:
            counts = np.bincount(members % q, minlength=q)
            lhs12 += tau * float(np.max(np.abs(counts - y_val / q)))
        primes = arith.primes_in(n_lo, n_hi)
        is_prime = np.isin(members, primes)
        lhs15, norm15, arc_match = {}, {}, {}
        log_integral = li_difference(n_lo, n_hi)
        for m_idx, (h, arc) in enumerate(zip(offsets, arcs)):
            kept = members[is_prime & (members >= n_lo + h)
                           & np.isin(members - h, members)]
            tested = primes[(primes >= n_lo + max(h, 0))
                            & (primes < n_hi + min(h, 0))]
            via_arc = arc_hits(arc, gamma, tested.tolist())
            arc_match[m_idx] = via_arc == kept.tolist()
            y_gm = float(arc.length) * log_integral
            total = 0.0
            for q, tau in moduli:
                counts = np.bincount(kept % q, minlength=q)
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
