"""Admissible tuples and their construction inside a Beatty sequence.

A tuple H = {h_1 < ... < h_k} is admissible when for every prime p some
residue class a_p avoids all h_i mod p.  Only p <= k needs scanning: k
distinct offsets cannot cover p > k classes.

translate_tuple builds a tuple whose offsets all satisfy
-gamma*h mod 1 in (0, 2*eps*gamma): take the first l primes above l, find a
window (eta, eta + eps*gamma] catching >= l*eps*gamma of the points
-gamma*p mod 1 by pigeonhole, then slide the whole hit set near 0 with a
single shift h chosen so that h*gamma mod 1 lands in (eta - eps*gamma, eta).
Admissibility of the result is automatic: the offsets are h + (prime > l),
so a_p = h mod p works for every p <= k <= l.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .beatty import pigeonhole_shift
from .errors import BudgetError, ImpossibleInputError, PreconditionError

SHIFT_SCAN_BUDGET = 10**6


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    witnesses: dict  # prime p <= k -> avoided residue a_p
    violating_prime: int | None = None


def is_admissible(offsets) -> AdmissibilityReport:
    """Scan primes p <= len(offsets) for an uncovered residue class."""
    hs = sorted(set(offsets))
    if len(hs) != len(offsets):
        raise PreconditionError("offsets must be distinct", offsets=tuple(offsets))
    k = len(hs)
    witnesses = {}
    for p in arith.primes_in(2, k + 1).tolist():
        residues = {h % p for h in hs}
        if len(residues) == p:
            return AdmissibilityReport(False, witnesses, p)
        witnesses[p] = min(set(range(p)) - residues)
    return AdmissibilityReport(True, witnesses)


@dataclass(frozen=True)
class AdmissibleTuple:
    offsets: tuple
    witnesses: dict

    @classmethod
    def from_offsets(cls, offsets) -> "AdmissibleTuple":
        report = is_admissible(offsets)
        if not report.admissible:
            raise PreconditionError(
                f"offsets cover all classes mod {report.violating_prime}",
                violating_prime=report.violating_prime)
        return cls(tuple(sorted(offsets)), report.witnesses)

    @property
    def k(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class TranslateResult:
    tuple_: AdmissibleTuple
    shift: int
    eta: Fraction
    requested_k: int
    achieved_k: int
    window_length: Fraction  # offsets satisfy -gamma*h mod 1 in (0, window_length)
    diagnostic: str | None = None

    @property
    def complete(self) -> bool:
        return self.achieved_k >= self.requested_k


def _first_primes_above(l: int, count: int) -> list[int]:
    limit = max(64, 2 * (l + count) * max(1, math.ceil(math.log(l + count + 2))))
    while True:
        ps = arith.primes_in(l + 1, limit + 1).tolist()
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def translate_tuple(l: int, k: int, gamma, eps) -> TranslateResult:
    """Admissible k-tuple with every offset h satisfying -gamma*h in (0, 2 eps gamma) mod 1.

    The pigeonhole window guarantees at least ceil(l * eps * gamma) usable
    primes; if that is below k the result carries the achievable size instead
    (check .complete).
    """
    g = arith.to_fraction(gamma)
    e = arith.to_fraction(eps)
    if not (1 <= k <= l):
        raise PreconditionError("need 1 <= k <= l", l=l, k=k)
    if not 0 < e * g < 1:
        raise PreconditionError("need 0 < eps*gamma < 1", eps_gamma=float(e * g))
    window = e * g
    primes = _first_primes_above(l, l)
    points = [(-g * p) % 1 for p in primes]
    eta, hits = pigeonhole_shift(points, window)
    chosen = [primes[j] for j in hits[: min(k, len(hits))]]
    note = None
    if len(chosen) < k:
        note = (f"pigeonhole window holds {len(hits)} of the requested {k} "
                "offsets; raise l or eps")

    lo = (eta - window) % 1
    # h*gamma mod 1 repeats with period den(gamma): no h past it is new
    candidates = min(SHIFT_SCAN_BUDGET, g.denominator)
    shift = None
    for h in range(1, candidates + 1):
        if 0 < (h * g - lo) % 1 < window:
            shift = h
            break
    if shift is None:
        raise BudgetError("no shift with h*gamma in the target window "
                          f"within {candidates} candidates")

    offsets = sorted(p + shift for p in chosen)
    for h in offsets:
        d = (-g * h) % 1
        if not 0 < d < 2 * window:
            raise RuntimeError("window arithmetic broke; shift or eta "
                               f"inconsistent at offset {h}")
    return TranslateResult(AdmissibleTuple.from_offsets(offsets), shift, eta,
                           k, len(chosen), 2 * window, note)


def divcond_check(offsets, q0: int, d0) -> tuple[bool, list[tuple[int, int, int]]]:
    """Every prime p > d0 dividing some h_i - h_j must divide q0.

    Returns (ok, violations) with violations as (p, h_i, h_j) triples.
    """
    hs = sorted(set(offsets))
    bad = []
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            diff = hs[j] - hs[i]
            for p, _ in arith.factorize(diff):
                if p > d0 and q0 % p != 0:
                    bad.append((p, hs[i], hs[j]))
    return (not bad), bad


def choose_nu0(offsets, w2: int) -> int:
    """Smallest residue nu in [0, w2) with gcd(nu + h, w2) = 1 for every offset h."""
    if w2 < 1:
        raise PreconditionError("w2 must be >= 1", w2=w2)
    for nu in range(w2):
        if all(math.gcd(nu + h, w2) == 1 for h in offsets):
            return nu
    raise ImpossibleInputError(
        f"no residue class mod {w2} keeps every nu + h coprime to {w2}")
