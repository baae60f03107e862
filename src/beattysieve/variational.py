"""Exact simplex quadratic forms and certified Rayleigh-quotient bounds.

The quality of a k-variable sieve weight profile F supported on the simplex
{t_i >= 0, sum t_i <= 1} is the quotient

    (sum over m of integral of (integral of F dt_m)^2) / (integral of F^2).

Restricting F to a finite polynomial basis turns the supremum into a
generalized eigenproblem A c = lambda B c with exact rational matrices.  Any
coefficient vector certifies a lower bound: its Rayleigh quotient is
re-evaluated in rational arithmetic, so float error in the eigensolver can
only cost sharpness, never soundness.

Maynard's profile is symmetric, so polynomials here are combinations of
(1 - P1)^a * P2^b with P1 = t_1 + ... + t_k and P2 = t_1^2 + ... + t_k^2,
keyed by (a, b).  The family is closed under multiplication (add the keys)
and under integrating out one variable.  With u = 1 - P1' the slack of the
other k - 1 variables,

    int_0^u (u - t)^a (P2' + t^2)^b dt
        = sum_j C(b, j) a! (2j)! / (a + 2j + 1)! * u^(a+2j+1) * P2'^(b-j),

whichever variable is integrated out, so the numerator above is k times the
integral of one marginal squared.  The simplex integral expands P2^b over
the partitions lambda of b into at most k parts: a lambda with l parts and
part multiplicities m_j stands for k! / ((k - l)! prod m_j!) monomials, each
with multinomial coefficient b! / prod lambda_i! and Dirichlet integral
a! prod (2 lambda_i)! / (k + a + 2b)!.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import BudgetError, PreconditionError

# C in the non-certified tuple-size estimate ceil(exp(threshold + C)).
K_FLOOR_CONSTANT = 3.0
# Dirichlet lookups mk_lower_bound may spend on its forms: the product of
# marginals i and j has (b_i + 1)(b_j + 1) terms, summed over pairs i <= j.
# The cost is about 36 us per lookup at k = 5 and at k = 105 (Python 3.11 on
# a 2-core x86-64 VM: 1.1 s at degree 15, 29 340 lookups), so the cap, just
# under degree 17, is about two seconds of work.
FORM_LOOKUP_BUDGET = 50_000


def _partitions(total: int, max_parts: int, largest: int):
    """Partitions of total into at most max_parts parts, each <= largest,
    as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _dirichlet(k: int, a: int, b: int) -> Fraction:
    """Exact integral of (1 - P1)^a * P2^b over the k-simplex."""
    total = 0
    for lam in _partitions(b, k, b):
        count = math.factorial(k) // math.factorial(k - len(lam))
        for m in Counter(lam).values():
            count //= math.factorial(m)
        value = math.factorial(b) * math.factorial(a)
        for part in lam:
            value = value * math.factorial(2 * part) // math.factorial(part)
        total += count * value
    return Fraction(total, math.factorial(k + a + 2 * b))


@dataclass(frozen=True)
class SimplexPolynomial:
    """Symmetric polynomial on the k-simplex; zero outside it by convention.

    terms maps (a, b) to the rational coefficient of (1 - P1)^a * P2^b.
    """
    k: int
    terms: dict

    @classmethod
    def from_terms(cls, k: int, mapping) -> "SimplexPolynomial":
        """Build from a map (a, b) -> coefficient."""
        clean: dict = {}
        for key, coeff in mapping.items():
            key = tuple(int(e) for e in key)
            if len(key) != 2 or min(key) < 0:
                raise PreconditionError("keys must be pairs (a, b) of "
                                        "non-negative exponents", key=key)
            c = Fraction(coeff)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
        return cls(k, {key: c for key, c in clean.items() if c})

    @classmethod
    def constant(cls, k: int, value=1) -> "SimplexPolynomial":
        return cls.from_terms(k, {(0, 0): value})

    def __mul__(self, other: "SimplexPolynomial") -> "SimplexPolynomial":
        if self.k != other.k:
            raise PreconditionError("dimension mismatch", left=self.k,
                                    right=other.k)
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return SimplexPolynomial(self.k, {key: c for key, c in out.items() if c})

    def integral(self) -> Fraction:
        return sum((c * _dirichlet(self.k, a, b) for (a, b), c in self.terms.items()),
                   Fraction(0))

    def marginal(self) -> "SimplexPolynomial":
        """Integrate out one variable; the result lives on the (k-1)-simplex.

        Every variable gives the same result: term (a, b) becomes
        sum_j C(b, j) a! (2j)! / (a + 2j + 1)! * (a + 2j + 1, b - j).
        """
        if self.k < 1:
            raise PreconditionError("no variable left to integrate out", k=self.k)
        out: dict = {}
        for (a, b), c in self.terms.items():
            for j in range(b + 1):
                key = (a + 2 * j + 1, b - j)
                w = c * math.comb(b, j) * Fraction(
                    math.factorial(a) * math.factorial(2 * j),
                    math.factorial(a + 2 * j + 1))
                out[key] = out.get(key, Fraction(0)) + w
        return SimplexPolynomial(self.k - 1, {key: v for key, v in out.items() if v})

    def evaluate(self, point) -> float:
        """Float value at t = point; 0.0 outside the simplex."""
        pt = [float(x) for x in point]
        if len(pt) != self.k:
            raise PreconditionError("point must have k coordinates",
                                    k=self.k, got=len(pt))
        slack = 1.0 - math.fsum(pt)
        if slack < 0 or any(x < 0 for x in pt):
            return 0.0
        p2 = math.fsum(x * x for x in pt)
        return math.fsum(float(c) * slack ** a * p2 ** b
                         for (a, b), c in self.terms.items())


def symmetric_basis(k: int, degree_budget: int):
    """Labels (a, b) with a + 2b <= budget and the matching one-term
    polynomials (1 - P1)^a * P2^b."""
    if k < 1:
        raise PreconditionError("k must be >= 1", k=k)
    if degree_budget < 0:
        raise PreconditionError("degree budget must be >= 0", budget=degree_budget)
    labels = sorted(((a, b)
                     for a in range(degree_budget + 1)
                     for b in range((degree_budget - a) // 2 + 1)),
                    key=lambda ab: (ab[0] + 2 * ab[1], ab[1], ab[0]))
    return labels, [SimplexPolynomial(k, {lab: Fraction(1)}) for lab in labels]


@dataclass(frozen=True)
class QuadraticFormPair:
    """Exact matrices of the numerator (A) and denominator (B) forms."""
    basis: tuple
    A: tuple
    B: tuple
    dropped: tuple = ()


def _independent_subset(gram) -> list[int]:
    """Indices of a maximal prefix-greedy independent subset of a PSD Gram matrix.

    Symmetric elimination with exact rationals; a zero pivot on a positive
    semidefinite matrix means the whole residual row vanishes, i.e. the
    element is dependent on the kept prefix.
    """
    n = len(gram)
    resid = [[Fraction(x) for x in row] for row in gram]
    kept = []
    for i in range(n):
        if resid[i][i] == 0:
            if any(resid[i][c] != 0 for c in range(i + 1, n)):
                raise PreconditionError("matrix is not positive semidefinite", row=i)
            continue
        kept.append(i)
        piv = resid[i][i]
        for r in range(i + 1, n):
            f = resid[r][i] / piv
            if f:
                for c in range(i + 1, n):
                    resid[r][c] -= f * resid[i][c]
    return kept


def forms(basis) -> QuadraticFormPair:
    """Assemble the exact form matrices over the given basis.

    B[i][j] is the simplex integral of basis_i * basis_j.  Every polynomial
    here is symmetric, so all k marginals of an element agree and A[i][j] is
    k times the integral of marginal_i * marginal_j over the (k-1)-simplex.
    If B is singular the dependent elements are dropped with a warning.
    """
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("basis must be non-empty")
    dim = basis[0].k
    if any(p.k != dim for p in basis):
        raise PreconditionError("mixed dimensions in basis")
    n = len(basis)

    margs = [p.marginal() for p in basis]
    a_mat = [[Fraction(0)] * n for _ in range(n)]
    b_mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b_mat[i][j] = b_mat[j][i] = (basis[i] * basis[j]).integral()
            a_mat[i][j] = a_mat[j][i] = dim * (margs[i] * margs[j]).integral()

    kept = _independent_subset(b_mat)
    dropped = tuple(i for i in range(n) if i not in set(kept))
    if dropped:
        warnings.warn("denominator form is singular on this basis; dropped "
                      f"dependent elements at positions {list(dropped)}")
        basis = tuple(basis[i] for i in kept)
        a_mat = [[a_mat[i][j] for j in kept] for i in kept]
        b_mat = [[b_mat[i][j] for j in kept] for i in kept]
    return QuadraticFormPair(basis,
                             tuple(tuple(row) for row in a_mat),
                             tuple(tuple(row) for row in b_mat),
                             dropped)


def rayleigh_quotient(pair: QuadraticFormPair, coefficients) -> Fraction:
    """Exact value of (c^T A c) / (c^T B c) for a coefficient vector."""
    c = [Fraction(x) for x in coefficients]
    n = len(pair.basis)
    if len(c) != n:
        raise PreconditionError("coefficient count must match the basis",
                                expected=n, got=len(c))
    num = Fraction(0)
    den = Fraction(0)
    for i in range(n):
        if not c[i]:
            continue
        for j in range(n):
            if not c[j]:
                continue
            num += c[i] * pair.A[i][j] * c[j]
            den += c[i] * pair.B[i][j] * c[j]
    if den == 0:
        raise PreconditionError("certificate has zero denominator mass")
    return num / den


@dataclass(frozen=True)
class MkCertificate:
    """Rational coefficient vector plus its exact Rayleigh quotient."""
    labels: tuple
    coefficients: tuple
    quotient: Fraction


def mk_lower_bound(k: int, degree_budget: int = 3):
    """Certified lower bound for the simplex Rayleigh supremum in dimension k.

    Returns (bound, certificate).  The bound is the exact rational Rayleigh
    quotient of the returned coefficients, evaluated on the exact form
    matrices, so it is a true lower bound regardless of eigensolver error.
    The top eigenvector of the pencil (A, B) comes from scipy.linalg.eigh;
    if it fails, its LinAlgError (a ValueError) propagates.  A degree budget
    whose forms need more than FORM_LOOKUP_BUDGET Dirichlet lookups is
    refused with that count as the estimate, before any matrix is built.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1", k=k)
    labels, elements = symmetric_basis(k, degree_budget)
    sizes = [b + 1 for _, b in labels]
    lookups = (sum(sizes) ** 2 + sum(x * x for x in sizes)) // 2
    if lookups > FORM_LOOKUP_BUDGET:
        raise BudgetError(f"degree budget {degree_budget} needs {lookups} "
                          f"Dirichlet lookups, over the budget of "
                          f"{FORM_LOOKUP_BUDGET}", estimate=lookups)
    pair = forms(elements)
    if pair.dropped:
        drop = set(pair.dropped)
        labels = [lab for i, lab in enumerate(labels) if i not in drop]
    a = np.array([[float(x) for x in row] for row in pair.A])
    b = np.array([[float(x) for x in row] for row in pair.B])
    vec = scipy.linalg.eigh(a, b)[1][:, -1]
    peak = np.max(np.abs(vec))
    if peak > 0:
        vec = vec / peak
    coeffs = tuple(Fraction(float(x)) for x in vec)
    quotient = rayleigh_quotient(pair, coeffs)
    return float(quotient), MkCertificate(tuple(labels), coeffs, quotient)


@dataclass(frozen=True)
class KSearchResult:
    k: int
    certified: bool
    threshold: float
    bound: float | None
    trail: tuple


def k_satisfying(t: int, b: float, theta: float, degree_budget: int = 3,
                 search_cap: int = 12) -> KSearchResult:
    """Least k whose certified bound clears (2t-2)/(b*theta).

    The scan uses certified lower bounds only, so the answer is an upper
    bound for the true minimal k.  If no k up to search_cap clears the
    threshold, returns the asymptotic-floor estimate
    ceil(exp(threshold + K_FLOOR_CONSTANT)) flagged as non-certified.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1", t=t)
    if not 0 < b <= 1:
        raise PreconditionError("b must lie in (0, 1]", b=b)
    if not 0 < theta < 1:
        raise PreconditionError("theta must lie in (0, 1)", theta=theta)
    threshold = (2 * t - 2) / (b * theta)
    trail = []
    for k in range(1, search_cap + 1):
        bound, _ = mk_lower_bound(k, degree_budget)
        trail.append((k, bound))
        if bound > threshold:
            return KSearchResult(k, True, threshold, bound, tuple(trail))
    estimate = math.ceil(math.exp(threshold + K_FLOOR_CONSTANT))
    return KSearchResult(estimate, False, threshold, None, tuple(trail))
