"""Per-point routes for beattysieve.maynard, kept to check it against.

The package samples the profile once per sorted entry tuple and builds the
float divisor sums of S1 on the gated class n = nu0 mod W2 alone; these
are the routes it replaced: F evaluated afresh at every support tuple, and
the divisor sums over every n of the window, gated afterwards.  The
progressions here are found by testing the congruences d_i | n + h_i on
the window directly, with no CRT.
"""
import math
from fractions import Fraction

import numpy as np


def profile_value(f, point) -> float:
    """f at one point of the simplex, term by term; 0.0 outside it."""
    pt = [float(x) for x in point]
    slack = 1.0 - math.fsum(pt)
    if slack < 0 or any(x < 0 for x in pt):
        return 0.0
    p2 = math.fsum(x * x for x in pt)
    return math.fsum(float(c) * slack ** a * p2 ** b
                     for (a, b), c in f.terms.items())


def per_tuple_y(ctx, support) -> dict:
    """{r: y_r} with F evaluated once per tuple, in the tuple's own order."""
    log_r = math.log(float(ctx.r_value))
    y = {}
    for r in support:
        point = [math.log(x) / log_r for x in r]
        if math.fsum(point) > 1:
            i = point.index(max(point))
            point[i] = 1.0 - math.fsum(point[:i] + point[i + 1:])
        y[r] = Fraction(profile_value(ctx.f, point))
    return y


def window_inner_sums(family, n_lo: int, n_hi: int) -> np.ndarray:
    """Float ungated divisor sums sum_{d_i | n + h_i} lambda_d over every n
    of [n_lo, n_hi), float(lambda_d) added in the order of family.lam."""
    ns = np.arange(n_lo, n_hi, dtype=np.int64)
    arr = np.zeros(len(ns))
    for d, ld in family.lam.items():
        if ld:
            hit = np.ones(len(ns), dtype=bool)
            for di, h in zip(d, family.offsets):
                hit &= (ns + h) % di == 0
            arr[hit] += float(ld)
    return arr


def ungated_s1(family, members, n_lo: int, n_hi: int) -> float:
    """S1 from the divisor sums of the whole window, gated afterwards."""
    inner = window_inner_sums(family, n_lo, n_hi)
    members = np.asarray(members, dtype=np.int64)
    mask = np.zeros(n_hi - n_lo, dtype=bool)
    mask[members[(members >= n_lo) & (members < n_hi)] - n_lo] = True
    gate = (np.arange(n_lo, n_hi) - family.nu0) % family.w2 == 0
    return float(np.sum(inner[mask & gate] ** 2))
