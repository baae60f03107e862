"""Multidimensional sieve weights over residue-gated windows.

A context fixes the wheel moduli: W2 is the product of primes up to D0 not
dividing q0, W1 additionally absorbs the prime factors of q0*q1, and R is
the support radius N^(theta/2 - eps).  Index tuples r = (r_1, ..., r_k) are
squarefree, coprime to W1, pairwise coprime, with product at most R.

On that support, y_r samples the simplex profile F at (log r_i / log R) and

    lambda_d = prod mu(d_i) d_i * sum_{d_i | r_i} y_r / prod phi(r_i),

with the exact inverse  y_r = prod mu(r_i) phi(r_i) * sum_{r_i | d_i}
lambda_d / prod d_i.  Both maps are one transform: a sum over component-wise
multiples in the support.  The support is closed under component-wise
divisors (squarefreeness, coprimality to W1, pairwise coprimality and the
product bound all pass to divisors), so each value is pushed onto the
divisor tuples of its index, sum_r prod tau(r_i) steps instead of
|support|^2.  The per-integer weight is the gated square

    w(n) = (sum_{d : d_i | n + h_i for all i} lambda_d)^2   if n = nu0 mod W2.

The sampled y values are frozen into exact rationals, so every identity
here (round trip, the lambda-lambda double-sum form of S1, the lcm
identity) is checked in exact arithmetic, never within a tolerance.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, tuples
from .errors import CapacityError, PreconditionError
from .variational import SimplexPolynomial

W_PRODUCT_CAP = 10**12
SUPPORT_CAP = 200_000


@dataclass(frozen=True)
class SieveContext:
    k: int
    n: int
    theta: float
    eps: float
    d0: int
    q0: int
    q1: int
    w1: int
    w2: int
    r_value: object  # int, Fraction, or float; exact types keep tests exact
    nu0: int | None
    f: SimplexPolynomial


def build_context(k: int, n: int, theta: float, eps: float,
                  **overrides) -> SieveContext:
    """Assemble wheel moduli and support radius; overrides may pin
    d0, q0, q1, r_value, nu0, f, or offsets (to derive nu0 and D0).

    Without a d0 override, D0 is the least value >= 2 for which the
    offsets pass tuples.divcond_check (every prime > D0 dividing an offset
    difference divides q0), so weights() accepts them: the largest
    violating prime at D0 = 2, or 2 when there is none or no offsets.
    If W1 then exceeds W_PRODUCT_CAP, the CapacityError names the prime
    and the offset difference that forced D0.
    """
    allowed = {"d0", "q0", "q1", "r_value", "nu0", "f", "offsets"}
    unknown = set(overrides) - allowed
    if unknown:
        raise PreconditionError(f"unknown overrides {sorted(unknown)}")
    if k < 1:
        raise PreconditionError("k must be >= 1", k=k)
    if n < 100:
        raise PreconditionError("n must be >= 100", n=n)
    if not 0 < theta < 1:
        raise PreconditionError("theta must lie in (0, 1)", theta=theta)
    if not 0 <= eps < theta / 2:
        raise PreconditionError("need 0 <= eps < theta/2 so that R > 1",
                                theta=theta, eps=eps)
    q0 = overrides.get("q0", 1)
    q1 = overrides.get("q1", 1)
    if q0 < 1 or q1 < 1:
        raise PreconditionError("q0, q1 must be >= 1", q0=q0, q1=q1)
    d0 = overrides.get("d0")
    advice = "choose a smaller D0"
    if not d0:
        _, bad = tuples.divcond_check(overrides.get("offsets", ()), q0, 2)
        if bad:
            d0, h_i, h_j = max(bad)
            advice = (f"D0 = {d0} is forced: the prime {d0} divides the offset "
                      f"difference {h_j} - {h_i} and not q0, and the divisor "
                      "condition needs every such prime <= D0")
        else:
            d0 = 2
            advice = "D0 = 2 is the least; the prime factors of q0*q1 carry W1"
    small = arith.primes_upto(d0)
    if math.gcd(q1, q0) != 1 or any(q1 % p == 0 for p in small):
        raise PreconditionError("q1 must be coprime to q0 and to all p <= D0",
                                q0=q0, q1=q1, d0=d0)
    extra = sorted({p for p, _ in arith.factorize(q0 * q1)} - set(small))
    w1 = 1
    for p in small + extra:
        w1 *= p
    if w1 > W_PRODUCT_CAP:
        raise CapacityError(f"W1 = {w1} exceeds {W_PRODUCT_CAP}; {advice}")
    w2 = 1
    for p in small:
        if q0 % p != 0:
            w2 *= p
    r_value = overrides.get("r_value")
    if r_value is None:
        r_value = n ** (theta / 2 - eps)
    if not float(r_value) > 1:
        raise PreconditionError("R must exceed 1", r_value=float(r_value))
    f = overrides.get("f")
    if f is None:
        f = SimplexPolynomial.constant(k, 1)
    if f.k != k:
        raise PreconditionError("profile dimension must equal k", k=k, f_k=f.k)
    nu0 = overrides.get("nu0")
    if nu0 is None and "offsets" in overrides:
        nu0 = tuples.choose_nu0(overrides["offsets"], w2)
    return SieveContext(k, n, theta, eps, d0, q0, q1, w1, w2, r_value, nu0, f)


def _support_values(ctx: SieveContext) -> list[int]:
    cap = float(ctx.r_value)
    if cap > 10**7:
        raise CapacityError("support radius too large to enumerate explicitly")
    out = []
    for m in range(1, int(cap) + 1):
        if m > 1 and math.gcd(m, ctx.w1) != 1:
            continue
        if arith.mobius(m) == 0:
            continue
        out.append(m)
    return out


def enumerate_support(ctx: SieveContext) -> list[tuple]:
    """All index tuples: squarefree, coprime to W1, pairwise coprime,
    product <= R.  Lexicographic order."""
    values = _support_values(ctx)
    r_cap = ctx.r_value
    out: list[tuple] = []

    def extend(prefix, prod, used):
        if len(prefix) == ctx.k:
            out.append(tuple(prefix))
            if len(out) > SUPPORT_CAP:
                raise CapacityError("support tuple count exceeds cap")
            return
        for m in values:
            if prod * m > r_cap:
                continue
            if m > 1 and math.gcd(m, used) != 1:
                continue
            extend(prefix + [m], prod * m, used * m)

    extend([], 1, 1)
    return out


@dataclass(frozen=True)
class WeightFamily:
    offsets: tuple
    nu0: int
    w2: int
    y: dict     # tuple -> Fraction
    lam: dict   # tuple -> Fraction

    def inner_sum(self, n: int) -> Fraction:
        total = Fraction(0)
        for d, value in self.lam.items():
            if all((n + h) % di == 0 for di, h in zip(d, self.offsets)):
                total += value
        return total

    def w(self, n: int) -> Fraction:
        """Gated squared weight; zero off the residue class nu0 mod W2."""
        if (n - self.nu0) % self.w2 != 0:
            return Fraction(0)
        return self.inner_sum(n) ** 2


def _phi_prod(r) -> int:
    out = 1
    for x in r:
        out *= arith.euler_phi(x)
    return out


def _mu_prod(r) -> int:
    out = 1
    for x in r:
        out *= arith.mobius(x)
    return out


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in arith.factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return out


def _sum_over_multiples(values: dict, keys) -> dict:
    """{d: sum of values[r] over r with d_i | r_i in every slot} for d in
    keys, in their order, added exactly.

    Each nonzero values[r] goes to every divisor tuple of r, so the cost is
    sum_r prod tau(r_i) visits.  The result is the double-loop sum for any
    keys; no visit is wasted when keys are closed under component-wise
    divisors, as the support is (squarefree, coprime to W1, pairwise
    coprime, product <= R).
    """
    divisors: dict = {}
    acc: dict = {}
    for r, value in values.items():
        if not value:
            continue
        for n in r:
            if n not in divisors:
                divisors[n] = _divisors(n)
        for d in itertools.product(*(divisors[n] for n in r)):
            acc[d] = acc.get(d, 0) + value
    return {d: acc.get(d, Fraction(0)) for d in keys}


def _lambda_from_y(support, y: dict) -> dict:
    """lambda_d = prod mu(d_i) d_i * sum over support multiples r of d of
    y_r / prod phi(r_i)."""
    sums = _sum_over_multiples({r: y[r] / _phi_prod(r) for r in support},
                               support)
    return {d: _mu_prod(d) * math.prod(d) * total for d, total in sums.items()}


def weights(ctx: SieveContext, offsets) -> WeightFamily:
    """Sampled y values (frozen to exact rationals) and the derived lambda."""
    offsets = tuple(sorted(offsets))
    if len(offsets) != ctx.k:
        raise PreconditionError("offset count must equal k",
                                k=ctx.k, got=len(offsets))
    report = tuples.is_admissible(offsets)
    if not report.admissible:
        raise PreconditionError("offsets are not admissible",
                                violating_prime=report.violating_prime)
    ok, bad = tuples.divcond_check(offsets, ctx.q0, ctx.d0)
    if not ok:
        raise PreconditionError("offset differences carry a prime > D0 "
                                "not dividing q0", violations=tuple(bad[:3]))
    nu0 = ctx.nu0 if ctx.nu0 is not None else tuples.choose_nu0(offsets, ctx.w2)

    support = enumerate_support(ctx)
    if len(support) <= 1:
        warnings.warn("support holds only the trivial tuple; R is too small "
                      "for a meaningful weight family")
    log_r = math.log(float(ctx.r_value))
    y = {}
    for r in support:
        point = [math.log(x) / log_r for x in r]
        y[r] = Fraction(float(ctx.f.evaluate(point)))

    return WeightFamily(offsets, nu0, ctx.w2, y, _lambda_from_y(support, y))


@dataclass(frozen=True)
class InversionResult:
    y: dict
    max_residual: Fraction
    consistent: bool


def invert_lambda(ctx: SieveContext, lam: dict) -> InversionResult:
    """Exact inverse of the lambda definition, with a residual check.

    Recovers y from lambda, then rebuilds lambda from the recovered y; any
    nonzero residual means the input was not in the image of the map.
    """
    support = enumerate_support(ctx)
    missing = set(lam) - set(support)
    if missing:
        raise PreconditionError("lambda carries indices off the support",
                                example=next(iter(missing)))
    lam_full = {r: Fraction(lam.get(r, 0)) for r in support}

    sums = _sum_over_multiples(
        {d: value / math.prod(d) for d, value in lam_full.items()}, support)
    y = {r: _mu_prod(r) * _phi_prod(r) * total for r, total in sums.items()}

    rebuilt = _lambda_from_y(support, y)
    worst = max(abs(rebuilt[d] - lam_full[d]) for d in support)
    return InversionResult(y, worst, worst == 0)


def s1_s2_direct(ctx: SieveContext, offsets, a_set, rho_fn=None,
                 gs=(1, 2, 3, 4, 5), family: WeightFamily | None = None):
    """Window sums by direct evaluation: S1 = sum of w(n) over members,
    S2[(g, m)] = sum of w(n) * rho_fn(g, n + h_m) over n with both n and
    n + h_m in the set.  Exact when rho_fn returns integers."""
    if family is None:
        family = weights(ctx, offsets)
    members = sorted(set(a_set))
    if members and not (ctx.n <= members[0] and members[-1] < 2 * ctx.n):
        raise PreconditionError("set must sit inside [N, 2N)",
                                lo=members[0], hi=members[-1], n=ctx.n)
    lookup = set(members)
    s1 = sum((family.w(n) for n in members), Fraction(0))
    s2 = {}
    if rho_fn is not None:
        for g in gs:
            for m, h in enumerate(family.offsets):
                total = Fraction(0)
                for n in members:
                    if n + h in lookup:
                        weight = family.w(n)
                        if weight:
                            total += weight * rho_fn(g, n + h)
                s2[(g, m)] = total
    return s1, s2


def _crt_combine(r1: int, m1: int, r2: int, m2: int):
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    step = m1 // g
    # solve r1 + m1*x = r2 (mod m2)
    target = (r2 - r1) // g
    inv = pow(m1 // g, -1, m2 // g) if m2 // g > 1 else 0
    x = (target * inv) % (m2 // g) if m2 // g > 1 else 0
    return (r1 + m1 * x) % l, l


def lambda_lambda_s1(ctx: SieveContext, offsets, a_set, n_lo: int, n_hi: int,
                     family: WeightFamily | None = None) -> Fraction:
    """Independent S1 route: expand the square and count, per pair (d, e),
    the members meeting n = nu0 mod W2 and lcm(d_i, e_i) | n + h_i.

    Exact: counts are integers off a boolean window mask, coefficients are
    the exact rational lambda products."""
    if family is None:
        family = weights(ctx, offsets)
    if not n_lo < n_hi:
        raise PreconditionError("empty window", n_lo=n_lo, n_hi=n_hi)
    mask = np.zeros(n_hi - n_lo, dtype=bool)
    for n in a_set:
        if not n_lo <= n < n_hi:
            raise PreconditionError("set member outside window", n=n)
        mask[n - n_lo] = True

    items = [(d, v) for d, v in family.lam.items() if v]
    total = Fraction(0)
    for d, ld in items:
        for e, le in items:
            res, mod = family.nu0 % family.w2, family.w2
            ok = True
            for di, ei, h in zip(d, e, family.offsets):
                m = di // math.gcd(di, ei) * ei
                combined = _crt_combine(res, mod, (-h) % m, m)
                if combined is None:
                    ok = False
                    break
                res, mod = combined
            if not ok:
                continue
            first = n_lo + (res - n_lo) % mod
            count = int(np.count_nonzero(mask[first - n_lo::mod]))
            if count:
                total += ld * le * count
    return total


def window_inner_sums(family: WeightFamily, n_lo: int, n_hi: int) -> np.ndarray:
    """Float array of the ungated divisor sums sum_{d_i | n + h_i} lambda_d
    over n in [n_lo, n_hi), accumulated progression by progression.

    Scales to windows of 10^6 and beyond where the exact per-n loop cannot;
    use w() / lambda_lambda_s1 when exactness matters.
    """
    if not n_lo < n_hi:
        raise PreconditionError("empty window", n_lo=n_lo, n_hi=n_hi)
    arr = np.zeros(n_hi - n_lo)
    for d, ld in family.lam.items():
        if not ld:
            continue
        res, mod = 0, 1
        for di, h in zip(d, family.offsets):
            combined = _crt_combine(res, mod, (-h) % di, di)
            if combined is None:
                raise PreconditionError("inconsistent congruences inside the "
                                        "support", d=d)
            res, mod = combined
        first = (res - n_lo) % mod
        arr[first::mod] += float(ld)
    return arr


def s1_window_float(family: WeightFamily, members, n_lo: int, n_hi: int) -> float:
    """S1 over the window in float arithmetic, for N-scale ratio reports.
    members is an int64 array of the set A (as beatty_members returns
    it); entries outside [n_lo, n_hi) are ignored."""
    inner = window_inner_sums(family, n_lo, n_hi)
    members = np.asarray(members, dtype=np.int64)
    mask = np.zeros(n_hi - n_lo, dtype=bool)
    mask[members[(members >= n_lo) & (members < n_hi)] - n_lo] = True
    gate = (np.arange(n_lo, n_hi) - family.nu0) % family.w2 == 0
    keep = mask & gate
    return float(np.sum(inner[keep] ** 2))


def main_terms(ctx: SieveContext, y_scalar, observed_s1=None) -> dict:
    """Predicted S1 from the profile's simplex integral,

    S1 ~ phi(W1)^k Y (log R)^k I / (q0 W1^k W2),

    with its ratio against an observed value when one is supplied."""
    k = ctx.k
    i_val = float((ctx.f * ctx.f).integral())
    log_r = math.log(float(ctx.r_value))
    s1_pred = (arith.euler_phi(ctx.w1)**k * float(y_scalar) * log_r**k * i_val
               / (ctx.q0 * ctx.w1**k * ctx.w2))
    ratio = None
    if observed_s1 is not None and s1_pred != 0:
        ratio = float(observed_s1) / s1_pred
    return {"s1_pred": s1_pred, "i_value": i_val, "ratio_s1": ratio}


def _shifted_phi(n: int) -> int:
    """Multiplicative with value p - 2 at primes; defined on odd squarefree n."""
    out = 1
    for p, _ in arith.factorize(n):
        out *= p - 2
    return out


def lcm_identity_check(d: int, e: int) -> bool:
    """Exact identity 1/phi(lcm) = (1/(phi(d) phi(e))) * sum_{t | gcd} f1(t)
    with f1 multiplicative, f1(p) = p - 2.  Requires d, e squarefree."""
    if arith.mobius(d) == 0 or arith.mobius(e) == 0:
        raise PreconditionError("d and e must be squarefree", d=d, e=e)
    g = math.gcd(d, e)
    lcm = d // g * e
    rhs_sum = 0
    for t in range(1, g + 1):
        if g % t == 0:
            rhs_sum += _shifted_phi(t)
    lhs = Fraction(1, arith.euler_phi(lcm))
    rhs = Fraction(rhs_sum, arith.euler_phi(d) * arith.euler_phi(e))
    return lhs == rhs
