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
a! prod (2 lambda_i)! / (k + a + 2b)!.  forms builds both matrices as integer
numerators over one factorial each, so its sums and its independence test
run on Python ints.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, CapacityError, PreconditionError

# C in the non-certified tuple-size estimate ceil(exp(threshold + C)).
K_FLOOR_CONSTANT = 3.0
# Dirichlet lookups mk_lower_bound may spend on its forms: the product of
# marginals i and j has (b_i + 1)(b_j + 1) terms, summed over pairs i <= j.
# On the integer Grams a lookup costs about 3 us at k = 5 and 4.5 us at
# k = 105 (Python 3.11 on a 2-core x86-64 VM, cold Dirichlet cache: forms
# takes 0.08 s and 0.13 s at degree 15, 29 340 lookups), so the cap, just
# under degree 17, is about a quarter second of form assembly.
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
def _dirichlet_num(k: int, a: int, b: int) -> int:
    """(k + a + 2b)! times the integral of (1 - P1)^a * P2^b over the
    k-simplex, an integer."""
    total = 0
    for lam in _partitions(b, k, b):
        count = math.factorial(k) // math.factorial(k - len(lam))
        for m in Counter(lam).values():
            count //= math.factorial(m)
        value = math.factorial(b) * math.factorial(a)
        for part in lam:
            value = value * math.factorial(2 * part) // math.factorial(part)
        total += count * value
    return total


def _dirichlet(k: int, a: int, b: int) -> Fraction:
    """Exact integral of (1 - P1)^a * P2^b over the k-simplex."""
    return Fraction(_dirichlet_num(k, a, b), math.factorial(k + a + 2 * b))


def _over_lcm(values) -> tuple[list[int], int]:
    """Integer numerators of the values over the lcm of their denominators."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


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
    """Indices of a maximal prefix-greedy independent subset of a PSD
    integer Gram matrix.

    Fraction-free symmetric elimination: row r takes p * row_r - q * row_i
    with (p, q) = (pivot, row_r[i]) / gcd, and is then divided by its
    content.  While every pivot so far is positive, each residual row is a
    positive multiple of the rational Schur-complement row, so its zero
    tests and signs are exact.  A zero pivot with a nonzero row, or a
    negative pivot, means the matrix is not positive semidefinite; a zero
    pivot with a zero row means the element depends on the kept prefix.
    """
    n = len(gram)
    resid = [list(row) for row in gram]
    kept = []
    for i in range(n):
        row = resid[i]
        piv = row[i]
        if piv <= 0:
            if piv < 0 or any(row[i + 1:]):
                raise PreconditionError("matrix is not positive semidefinite", row=i)
            continue
        kept.append(i)
        for r in range(i + 1, n):
            other = resid[r]
            f = other[i]
            if f:
                g = math.gcd(piv, f)
                p, q = piv // g, f // g
                new = [p * x - q * y for x, y in zip(other[i + 1:], row[i + 1:])]
                content = math.gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                other[i + 1:] = new
    return kept


def _gram(polys, dim: int) -> tuple[list[list[int]], list[int], int]:
    """Integer Gram of the polynomials on the dim-simplex.

    Entry (i, j) is den_i * den_j * (dim + 2 top)! times the integral of
    p_i * p_j, where den_i is the lcm of p_i's coefficient denominators and
    top the largest a + 2b among the terms.  Returns the matrix, the den_i
    and the factorial.
    """
    scaled, dens = [], []
    for p in polys:
        nums, den = _over_lcm(p.terms.values())
        scaled.append(list(zip(p.terms, nums)))
        dens.append(den)
    top = max((a + 2 * b for p in polys for a, b in p.terms), default=0)
    scale = math.factorial(dim + 2 * top)
    weight = {}
    n = len(polys)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = 0
            for (a1, b1), c1 in scaled[i]:
                for (a2, b2), c2 in scaled[j]:
                    key = (a1 + a2, b1 + b2)
                    w = weight.get(key)
                    if w is None:
                        w = weight[key] = _dirichlet_num(dim, *key) * (
                            scale // math.factorial(dim + key[0] + 2 * key[1]))
                    total += c1 * c2 * w
            gram[i][j] = gram[j][i] = total
    return gram, dens, scale


def _reduced(gram, dens, scale, kept, factor=1) -> tuple:
    """factor * gram[i][j] / (dens[i] * dens[j] * scale) as reduced
    Fractions over the kept indices, built once per symmetric pair."""
    out = [[None] * len(kept) for _ in kept]
    for r, i in enumerate(kept):
        for s in range(r, len(kept)):
            j = kept[s]
            out[r][s] = out[s][r] = Fraction(factor * gram[i][j],
                                             dens[i] * dens[j] * scale)
    return tuple(tuple(row) for row in out)


def forms(basis) -> QuadraticFormPair:
    """Assemble the exact form matrices over the given basis.

    B[i][j] is the simplex integral of basis_i * basis_j.  Every polynomial
    here is symmetric, so all k marginals of an element agree and A[i][j] is
    k times the integral of marginal_i * marginal_j over the (k-1)-simplex.
    Both are assembled as integer Grams over one common denominator each;
    the independence test runs on the integer B.  If B is singular the
    dependent elements are dropped with a warning.
    """
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("basis must be non-empty")
    dim = basis[0].k
    if any(p.k != dim for p in basis):
        raise PreconditionError("mixed dimensions in basis")
    n = len(basis)

    b_gram, b_dens, b_scale = _gram(basis, dim)
    a_gram, a_dens, a_scale = _gram([p.marginal() for p in basis], dim - 1)
    kept = _independent_subset(b_gram)
    dropped = tuple(sorted(set(range(n)).difference(kept)))
    if dropped:
        warnings.warn("denominator form is singular on this basis; dropped "
                      f"dependent elements at positions {list(dropped)}")
    return QuadraticFormPair(tuple(basis[i] for i in kept),
                             _reduced(a_gram, a_dens, a_scale, kept, dim),
                             _reduced(b_gram, b_dens, b_scale, kept),
                             dropped)


def _quadratic(mat, live, cs) -> tuple[int, int]:
    """cs^T M cs over the live indices of M, as an integer over the lcm of
    those entries' denominators; returns (integer, lcm)."""
    ints, den = _over_lcm(mat[i][j] for i in live for j in live)
    m = len(live)
    total = sum(c * sum(x * y for x, y in zip(ints[r * m:(r + 1) * m], cs))
                for r, c in enumerate(cs))
    return total, den


def rayleigh_quotient(pair: QuadraticFormPair, coefficients) -> Fraction:
    """Exact value of (c^T A c) / (c^T B c) for a coefficient vector.

    c, A and B each go over one common denominator; the sums run on
    integers and the denominators of c cancel in the quotient.
    """
    c = [Fraction(x) for x in coefficients]
    n = len(pair.basis)
    if len(c) != n:
        raise PreconditionError("coefficient count must match the basis",
                                expected=n, got=len(c))
    live = [i for i in range(n) if c[i]]
    cs, _ = _over_lcm(c[i] for i in live)
    num, a_den = _quadratic(pair.A, live, cs)
    den, b_den = _quadratic(pair.B, live, cs)
    if den == 0:
        raise PreconditionError("certificate has zero denominator mass")
    return Fraction(num * b_den, den * a_den)


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
    The top eigenvector of the pencil (A, B) comes from float copies by
    Cholesky reduction: B = L L^T, the top eigenvector y of L^-1 A L^-T, and
    the solve L^T x = y.  When float B is not numerically positive definite
    (entries underflowing past 1/170! at large k, or an ill-conditioned
    basis at high degree) the Cholesky factorization fails and the input is
    refused with a CapacityError naming k, the degree and numpy's message.
    The triangular systems go through np.linalg.solve, not an explicit
    inverse: at k = 1 only the solve keeps the certificate exactly 1.  A
    degree budget whose forms need more than FORM_LOOKUP_BUDGET Dirichlet
    lookups is refused with that count as the estimate, before any matrix
    is built.
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
    try:
        lower = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise CapacityError(f"the float pencil at k = {k}, degree "
                            f"{degree_budget} is singular: {exc}") from exc
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, a).T)
    vec = np.linalg.solve(lower.T, np.linalg.eigh(reduced)[1][:, -1])
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


def k_threshold(t: int, b: float, theta: float) -> float:
    """(2t-2)/(b*theta): t primes among k shifts follow once M_k exceeds it."""
    if t < 1:
        raise PreconditionError("t must be >= 1", t=t)
    if not 0 < b <= 1:
        raise PreconditionError("b must lie in (0, 1]", b=b)
    if not 0 < theta < 1:
        raise PreconditionError("theta must lie in (0, 1)", theta=theta)
    return (2 * t - 2) / (b * theta)


def mk_upper_bound(k: int) -> float:
    """An upper bound for M_k, k >= 2: k log k / (k-1) (Maynard,
    arXiv:1311.4600, Prop. 4.2), raised by a relative 1e-12 to cover its
    rounding and that of a certified bound's float.  It grows with k and
    M_1 = 1, so no k up to K clears a threshold above mk_upper_bound(K).
    """
    return k * math.log(k) / (k - 1) * (1 + 1e-12)


def k_satisfying(t: int, b: float, theta: float, degree_budget: int = 3,
                 search_cap: int = 12) -> KSearchResult:
    """Least k whose certified bound clears k_threshold(t, b, theta).

    The scan uses certified lower bounds only, so the answer is an upper
    bound for the true minimal k.  If no k up to search_cap clears the
    threshold, returns the asymptotic-floor estimate
    ceil(exp(threshold + K_FLOOR_CONSTANT)) flagged as non-certified.
    """
    threshold = k_threshold(t, b, theta)
    trail = []
    for k in range(1, search_cap + 1):
        bound, _ = mk_lower_bound(k, degree_budget)
        trail.append((k, bound))
        if bound > threshold:
            return KSearchResult(k, True, threshold, bound, tuple(trail))
    estimate = math.ceil(math.exp(threshold + K_FLOOR_CONSTANT))
    return KSearchResult(estimate, False, threshold, None, tuple(trail))
