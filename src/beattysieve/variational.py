"""Exact simplex quadratic forms and certified Rayleigh-quotient bounds.

The quality of a k-variable sieve weight profile F supported on the simplex
{t_i >= 0, sum t_i <= 1} is the quotient

    (sum over m of integral of (integral of F dt_m)^2) / (integral of F^2).

Restricting F to a finite polynomial basis turns the supremum into a
generalized eigenproblem A c = lambda B c with exact rational matrices.  Any
coefficient vector certifies a lower bound: its Rayleigh quotient is
re-evaluated in rational arithmetic, so float error in the eigensolver can
only cost sharpness, never soundness.

Polynomials carry an explicit slack exponent: the key (s, e_1, ..., e_k)
stands for (1 - t_1 - ... - t_k)^s * prod t_i^(e_i).  This family is closed
under multiplication and under integrating out one variable, and the full
simplex integral is the Dirichlet value s! prod e_i! / (k + s + sum e)!.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np
import scipy.linalg

from .errors import PreconditionError

# C in the non-certified tuple-size estimate ceil(exp(threshold + C)).
K_FLOOR_CONSTANT = 3.0


def simplex_monomial_integral(exponents, k: int) -> Fraction:
    """Exact integral of prod t_i^(a_i) over the k-simplex."""
    exps = tuple(int(a) for a in exponents)
    if len(exps) != k:
        raise PreconditionError("need one exponent per variable", k=k, exponents=exps)
    if any(a < 0 for a in exps):
        raise PreconditionError("exponents must be non-negative", exponents=exps)
    num = 1
    for a in exps:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(k + sum(exps)))


@dataclass(frozen=True)
class SimplexPolynomial:
    """Polynomial on the k-simplex; zero outside it by convention.

    terms maps (slack_exp, e_1, ..., e_k) to a rational coefficient.
    """
    k: int
    terms: dict

    @classmethod
    def from_terms(cls, k: int, mapping) -> "SimplexPolynomial":
        """Build from a coefficient map.  Keys of length k are read as plain
        t-monomials (slack exponent 0); keys of length k+1 carry the slack
        exponent in slot 0."""
        clean: dict = {}
        for key, coeff in mapping.items():
            key = tuple(int(e) for e in key)
            if len(key) == k:
                key = (0,) + key
            elif len(key) != k + 1:
                raise PreconditionError("exponent vector must have length k or k+1",
                                        key=key, k=k)
            if any(e < 0 for e in key):
                raise PreconditionError("exponents must be non-negative", key=key)
            c = Fraction(coeff)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
        return cls(k, {key: c for key, c in clean.items() if c})

    @classmethod
    def constant(cls, k: int, value=1) -> "SimplexPolynomial":
        return cls.from_terms(k, {(0,) * (k + 1): value})

    def _same_space(self, other: "SimplexPolynomial") -> None:
        if self.k != other.k:
            raise PreconditionError("dimension mismatch", left=self.k, right=other.k)

    def __add__(self, other):
        if not isinstance(other, SimplexPolynomial):
            return NotImplemented
        self._same_space(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return SimplexPolynomial(self.k, {key: c for key, c in out.items() if c})

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, SimplexPolynomial):
            self._same_space(other)
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return SimplexPolynomial(self.k, {key: c for key, c in out.items() if c})
        c = Fraction(other)
        return SimplexPolynomial(self.k,
                                 {key: v * c for key, v in self.terms.items() if v * c})

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        return max((sum(key) for key in self.terms), default=0)

    def integral(self) -> Fraction:
        total = Fraction(0)
        for key, c in self.terms.items():
            num = 1
            for e in key:
                num *= math.factorial(e)
            total += c * Fraction(num, math.factorial(self.k + sum(key)))
        return total

    def marginal(self, m: int) -> "SimplexPolynomial":
        """Integrate out t_m (0-based); result lives on the (k-1)-simplex.

        With u the slack of the remaining variables, 1 - sum t = u - t_m, so
        each term integrates in closed form:
        int_0^u (u - t)^s t^e dt = u^(s+e+1) * s! e! / (s+e+1)!.
        """
        if not 0 <= m < self.k:
            raise PreconditionError("variable index out of range", m=m, k=self.k)
        out: dict = {}
        for key, c in self.terms.items():
            s, es = key[0], key[1:]
            e = es[m]
            new_key = (s + e + 1,) + es[:m] + es[m + 1:]
            w = c * Fraction(math.factorial(s) * math.factorial(e),
                             math.factorial(s + e + 1))
            out[new_key] = out.get(new_key, Fraction(0)) + w
        return SimplexPolynomial(self.k - 1, {key: v for key, v in out.items() if v})

    def evaluate(self, point):
        """Value at t = point; returns 0 outside the simplex.

        Rational inputs give an exact Fraction, anything else goes float.
        """
        pt = list(point)
        if len(pt) != self.k:
            raise PreconditionError("point must have k coordinates",
                                    k=self.k, got=len(pt))
        exact = all(isinstance(x, Rational) for x in pt)
        if exact:
            pt = [Fraction(x) for x in pt]
            slack = Fraction(1) - sum(pt)
            total = Fraction(0)
        else:
            pt = [float(x) for x in pt]
            slack = 1.0 - math.fsum(pt)
            total = 0.0
        if slack < 0 or any(x < 0 for x in pt):
            return total
        for key, c in self.terms.items():
            term = c if exact else float(c)
            if key[0]:
                term = term * slack ** key[0]
            for x, e in zip(pt, key[1:]):
                if e:
                    term = term * x ** e
            total += term
        return total


def is_symmetric(poly: SimplexPolynomial) -> bool:
    """True when poly is invariant under permuting the t variables.

    Checking one transposition and one full cycle suffices: together they
    generate the whole symmetric group.
    """
    k = poly.k
    if k <= 1:
        return True
    swap = list(range(k))
    swap[0], swap[1] = swap[1], swap[0]
    cycle = list(range(1, k)) + [0]
    for perm in (swap, cycle):
        mapped = {(key[0],) + tuple(key[1 + p] for p in perm): c
                  for key, c in poly.terms.items()}
        if mapped != poly.terms:
            return False
    return True


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def symmetric_element(k: int, a: int, b: int) -> SimplexPolynomial:
    """(1 - t_1 - ... - t_k)^a * (t_1^2 + ... + t_k^2)^b, expanded."""
    if k < 1 or a < 0 or b < 0:
        raise PreconditionError("need k >= 1 and non-negative exponents",
                                k=k, a=a, b=b)
    terms: dict = {}
    for comp in _compositions(b, k):
        denom = 1
        for c in comp:
            denom *= math.factorial(c)
        key = (a,) + tuple(2 * c for c in comp)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(math.factorial(b), denom)
    return SimplexPolynomial.from_terms(k, terms)


def symmetric_basis(k: int, degree_budget: int):
    """Labels (a, b) with a + 2b <= budget and the matching polynomials."""
    if degree_budget < 0:
        raise PreconditionError("degree budget must be >= 0", budget=degree_budget)
    labels = sorted(((a, b)
                     for a in range(degree_budget + 1)
                     for b in range((degree_budget - a) // 2 + 1)),
                    key=lambda ab: (ab[0] + 2 * ab[1], ab[1], ab[0]))
    return labels, [symmetric_element(k, a, b) for a, b in labels]


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


def leading_minors(matrix) -> list[Fraction]:
    """Exact determinants of the leading principal blocks."""
    n = len(matrix)
    out = []
    for size in range(1, n + 1):
        rows = [[Fraction(matrix[i][j]) for j in range(size)] for i in range(size)]
        det = Fraction(1)
        for col in range(size):
            piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det *= rows[col][col]
            for r in range(col + 1, size):
                f = rows[r][col] / rows[col][col]
                if f:
                    for c in range(col, size):
                        rows[r][c] -= f * rows[col][c]
        out.append(det)
    return out


def forms(basis, k: int | None = None) -> QuadraticFormPair:
    """Assemble the exact form matrices over the given basis.

    B[i][j] is the simplex integral of basis_i * basis_j; A[i][j] sums, over
    each variable m, the integral of the product of the two t_m-marginals.
    A fully symmetric basis needs only one marginal, scaled by k.  If B is
    singular the dependent elements are dropped with a warning.
    """
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("basis must be non-empty")
    dim = basis[0].k
    if any(p.k != dim for p in basis):
        raise PreconditionError("mixed dimensions in basis")
    if k is not None and k != dim:
        raise PreconditionError("k does not match the basis", k=k, basis_k=dim)
    n = len(basis)

    b_mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = (basis[i] * basis[j]).integral()
            b_mat[i][j] = b_mat[j][i] = v

    all_sym = all(is_symmetric(p) for p in basis)
    m_range = (0,) if all_sym else tuple(range(dim))
    scale = dim if all_sym else 1
    margs = {m: [p.marginal(m) for p in basis] for m in m_range}
    a_mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = scale * sum(((margs[m][i] * margs[m][j]).integral()
                             for m in m_range), Fraction(0))
            a_mat[i][j] = a_mat[j][i] = v

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
    if it fails, its LinAlgError (a ValueError) propagates.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1", k=k)
    labels, elements = symmetric_basis(k, degree_budget)
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
