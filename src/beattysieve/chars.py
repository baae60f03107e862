"""Dirichlet characters via CRT discrete-log tables.

The unit group mod q splits over the prime powers of q: odd p^e parts are
cyclic under a primitive root chosen to work for every exponent at once,
and 2^e parts (e >= 3) split as {+-1} x <5>.  A character is a tuple of
exponents against those cyclic factors, and every value is carried as a
root-of-unity exponent (an integer mod the group exponent) until a sum
actually needs complex numbers.  That keeps orthogonality and conductor
logic exact.

Conductors come from the per-factor index: an odd p^e component with index
c != 0 contributes p^(e - min(v_p(c), e-1)); a 2^e component (e >= 3) with
5-index c2 != 0 contributes 2^(e - v_2(c2)), else 4 when the sign index is
set.  The primitive character inducing chi lives on the conductor and has
the same indices divided down.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith
from .errors import BudgetError, PreconditionError

TABLE_MODULUS_CAP = 10**6
BILINEAR_OP_BUDGET = 5 * 10**7


def _primitive_root(p: int) -> int:
    """Smallest primitive root mod p that stays primitive mod p^2."""
    targets = [(p - 1) // r for r, _ in arith.factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, t, p) != 1 for t in targets):
            break
        g += 1
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class _Factor:
    """One prime-power block of the unit group, with its dlog table."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modulus = p**e
        if p == 2:
            if e == 1:
                self.orders = ()
            elif e == 2:
                self.orders = (2,)
            else:
                self.orders = (2, 2 ** (e - 2))
            self._build_two()
        else:
            self.orders = (self.modulus // p * (p - 1),)
            self._build_odd()

    def _build_odd(self):
        m = self.modulus
        g = _primitive_root(self.p)
        table = np.full(m, -1, dtype=np.int64)
        acc = 1
        for t in range(self.orders[0]):
            table[acc] = t
            acc = acc * g % m
        self._dlog = table

    def _build_two(self):
        m = self.modulus
        if self.e == 1:
            self._dlog = None
            return
        if self.e == 2:
            table = np.full(m, -1, dtype=np.int64)
            table[1] = 0
            table[3] = 1
            self._dlog = table
            return
        sign = np.full(m, -1, dtype=np.int64)
        five = np.full(m, -1, dtype=np.int64)
        acc = 1
        for b in range(self.orders[1]):
            sign[acc] = 0
            five[acc] = b
            sign[m - acc] = 1
            five[m - acc] = b
            acc = acc * 5 % m
        self._dlog = (sign, five)

    def dlog(self, j: int) -> tuple:
        j %= self.modulus
        if self.p == 2:
            if self.e == 1:
                return ()
            if self.e == 2:
                t = int(self._dlog[j])
                return (t,) if t >= 0 else None
            a = int(self._dlog[0][j])
            if a < 0:
                return None
            return (a, int(self._dlog[1][j]))
        t = int(self._dlog[j])
        return (t,) if t >= 0 else None

    def conductor(self, indices: tuple) -> int:
        if all(c == 0 for c in indices):
            return 1
        p, e = self.p, self.e
        if p != 2:
            c = indices[0]
            v = 0
            while c % p == 0 and v < e - 1:
                c //= p
                v += 1
            return p ** (e - v)
        if e == 2:
            return 4
        c2 = indices[1]
        if c2 == 0:
            return 4
        v = 0
        while c2 % 2 == 0:
            c2 //= 2
            v += 1
        return 2 ** (e - v)


@dataclass(frozen=True)
class Character:
    """One character: per-cyclic-factor exponent indices against a table."""

    table: "CharTable"
    index: int
    components: tuple

    @property
    def q(self) -> int:
        return self.table.q

    def exponent(self, j: int):
        """chi(j) as t with chi(j) = e(t / group_exponent); None off units."""
        dlogs = self.table.unit_dlog(j)
        if dlogs is None:
            return None
        big_l = self.table.group_exponent
        t = 0
        for c, d, n in zip(self.components, dlogs, self.table.cyc_orders):
            t += c * d * (big_l // n)
        return t % big_l

    def __call__(self, j: int) -> complex:
        t = self.exponent(j)
        if t is None:
            return 0j
        return self.table.root_of_unity(t)

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.components)

    @property
    def order(self) -> int:
        out = 1
        for c, n in zip(self.components, self.table.cyc_orders):
            out = math.lcm(out, n // math.gcd(c, n))
        return out

    @property
    def conductor(self) -> int:
        out = 1
        pos = 0
        for factor in self.table.factors:
            width = len(factor.orders)
            out *= factor.conductor(self.components[pos:pos + width])
            pos += width
        return out

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    def induced_primitive(self) -> "Character":
        """The primitive character of modulus conductor(chi) inducing chi."""
        f = self.conductor
        target = char_table(f)
        comps = []
        pos = 0
        for factor in self.table.factors:
            width = len(factor.orders)
            local = self.components[pos:pos + width]
            pos += width
            p, e = factor.p, factor.e
            fe = 0
            ff = f
            while ff % p == 0:
                ff //= p
                fe += 1
            if fe == 0:
                continue
            if p != 2:
                comps.append(local[0] // p ** (e - fe))
            elif fe == 2:
                comps.append(local[0])
            else:
                comps.append(local[0])
                comps.append(local[1] // 2 ** (e - fe))
        index = 0
        base = 1
        for c, n in zip(comps, target.cyc_orders):
            index += c * base
            base *= n
        return target.characters[index]

    def values(self) -> np.ndarray:
        """chi(j) for j in [0, q) as a complex array."""
        q = self.q
        out = np.zeros(q, dtype=complex)
        js, dlogs = self.table.unit_dlog_matrix()
        big_l = self.table.group_exponent
        w = np.array([c * (big_l // n) for c, n in
                      zip(self.components, self.table.cyc_orders)],
                     dtype=np.int64)
        t = (dlogs @ w) % big_l if len(w) else np.zeros(len(js), np.int64)
        out[js] = np.exp(2j * np.pi * t / big_l)
        return out


class _CharacterFamily:
    def __init__(self, table: "CharTable"):
        self._table = table

    def __len__(self) -> int:
        return self._table.phi

    def __getitem__(self, i: int) -> Character:
        t = self._table
        if not 0 <= i < t.phi:
            raise IndexError(i)
        comps = []
        rem = i
        for n in t.cyc_orders:
            comps.append(rem % n)
            rem //= n
        return Character(t, i, tuple(comps))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class CharTable:
    """All characters mod q, with CRT dlog data shared across them."""

    def __init__(self, q: int):
        if not 1 <= q <= TABLE_MODULUS_CAP:
            raise PreconditionError("modulus must lie in [1, 10^6]", q=q)
        self.q = q
        self.factors = [_Factor(p, e) for p, e in arith.factorize(q)]
        self.cyc_orders = tuple(n for f in self.factors for n in f.orders)
        self.phi = 1
        for n in self.cyc_orders:
            self.phi *= n
        self.group_exponent = 1
        for n in self.cyc_orders:
            self.group_exponent = math.lcm(self.group_exponent, n)
        self.characters = _CharacterFamily(self)
        self._roots = None
        self._dlog_matrix = None

    def unit_dlog(self, j: int):
        if math.gcd(j, self.q) != 1:
            return None
        out = []
        for f in self.factors:
            d = f.dlog(j)
            if d is None:
                return None
            out.extend(d)
        return tuple(out)

    def root_of_unity(self, t: int) -> complex:
        if self._roots is None:
            big_l = self.group_exponent
            self._roots = np.exp(2j * np.pi * np.arange(big_l) / big_l)
        return complex(self._roots[t % self.group_exponent])

    def unit_dlog_matrix(self):
        """(units array, len(units) x num_factors dlog matrix); cached."""
        if self._dlog_matrix is None:
            js = [j for j in range(self.q) if math.gcd(j, self.q) == 1]
            if self.q == 1:
                js = [0]
            rows = np.zeros((len(js), len(self.cyc_orders)), dtype=np.int64)
            for i, j in enumerate(js):
                d = self.unit_dlog(j)
                if d:
                    rows[i] = d
            self._dlog_matrix = (np.array(js, dtype=np.int64), rows)
        return self._dlog_matrix

    def primitive_count(self) -> int:
        return sum(1 for chi in self.characters if chi.is_primitive)


@lru_cache(maxsize=128)
def char_table(q: int) -> CharTable:
    return CharTable(q)


def primitive_count_formula(q: int) -> int:
    """Number of primitive characters mod q: sum over d | q of mu(q/d) phi(d)."""
    total = 0
    for d in range(1, q + 1):
        if q % d == 0:
            total += arith.mobius(q // d) * arith.euler_phi(d)
    return total


def gauss_sum(chi: Character, n: int) -> complex:
    """Full-period twisted sum  sum_{j=1}^q chi(j) e(-n j / q)."""
    q = chi.q
    if q == 1:
        return complex(1.0)
    vals = chi.values()
    js = np.arange(q)
    total = np.sum(vals * np.exp(-2j * np.pi * (n % q) * js / q))
    return complex(total)


def _window_products(gamma, a_coeffs: dict, b_coeffs: dict,
                     n_lo: int, n_hi: int):
    """Pairs (m, k) with n_lo <= m k < n_hi and their a_m b_k e(gamma m k)."""
    out = []
    g = float(gamma)
    for m, am in a_coeffs.items():
        if am == 0:
            continue
        for k, bk in b_coeffs.items():
            if bk == 0:
                continue
            n = m * k
            if n_lo <= n < n_hi:
                out.append((n, am * bk * cmath.exp(2j * cmath.pi * g * n)))
    return out


def _check_ranges(a_coeffs: dict, b_coeffs: dict):
    for name, coeffs in (("a", a_coeffs), ("b", b_coeffs)):
        if not coeffs:
            raise PreconditionError(f"empty coefficient range for {name}")
        lo, hi = min(coeffs), max(coeffs)
        if lo < 1:
            raise PreconditionError(f"{name} indices must be positive", lo=lo)
        if hi >= 2 * lo + 2:
            raise PreconditionError(
                f"{name} indices must fit a dyadic range [M, 2M)", lo=lo, hi=hi)


def bilinear_S(q_lo: int, gamma, a_coeffs: dict, b_coeffs: dict,
               n_lo: int, n_hi: int) -> float:
    """sum over q in [Q, 2Q), chi mod q of |double character sum|.

    The inner sum runs over m, k with n = m k inside [n_lo, n_hi):
    sum a_m b_k chi(mk) e(gamma m k).  Coefficients are dicts on dyadic
    ranges.  Work is aggregated per residue class mod q, so the cost is
    about (#pairs + q phi(q)) per modulus; oversized requests are refused
    with an estimate.
    """
    if q_lo < 1:
        raise PreconditionError("Q must be >= 1", q=q_lo)
    _check_ranges(a_coeffs, b_coeffs)
    pairs = _window_products(gamma, a_coeffs, b_coeffs, n_lo, n_hi)
    cost = 0
    for q in range(q_lo, 2 * q_lo):
        cost += len(pairs) + q * arith.euler_phi(q)
    if cost > BILINEAR_OP_BUDGET:
        raise BudgetError("bilinear sum too large for the direct evaluator",
                          estimate=cost)
    total = 0.0
    for q in range(q_lo, 2 * q_lo):
        table = char_table(q)
        by_residue = np.zeros(q, dtype=complex)
        for n, w in pairs:
            by_residue[n % q] += w
        for chi in table.characters:
            total += abs(complex(chi.values() @ by_residue))
    return float(total)


def divisor_concentration(q_lo: int, n_hi: int) -> int:
    """max over n < n_hi of #{q in [Q, 2Q) : q | n} (the D of the bound)."""
    if n_hi <= 1:
        return 0
    counts = np.zeros(n_hi, dtype=np.int64)
    for q in range(q_lo, 2 * q_lo):
        if q < n_hi:
            counts[q::q] += 1
    return int(counts.max())


def _gamma_approximation(gamma, r_cap: int):
    """Best convergent u/r with r <= r_cap, plus H = r^2 |gamma - u/r|."""
    from . import dioph
    best = None
    for approx in dioph.convergents(gamma, 40):
        if approx.denominator <= r_cap and approx.denominator >= 1:
            best = approx
    if best is None:
        raise PreconditionError("no usable rational approximation",
                                r_cap=r_cap)
    delta = abs(float(gamma) - best.numerator / best.denominator)
    h = max(best.denominator**2 * delta, 1e-12)
    return best.numerator, best.denominator, h, delta


def bilinear_report(q_lo: int, gamma, a_coeffs: dict, b_coeffs: dict,
                    n_lo: int, n_hi: int) -> dict:
    """Observed bilinear sum against the shape of its stated upper bound.

    The right side, with implied constant 1 and the best convergent u/r of
    gamma (r <= N, H = r^2 |gamma - u/r|), is

      ||a|| ||b|| (log N)^(3/2) D^(1/2)
        (Q^2 M^(1/2) + Q^(3/2) H^(1/2) N^(1/2) / r^(1/2)
         + Q^(3/2) H^(1/2) K^(1/2) + Q^(3/2) r^(1/2)).

    Ratios are recorded, never asserted.  When b is constantly 1 on its
    range the two specialized variants are reported too, with their
    applicability conditions checked.
    """
    lhs = bilinear_S(q_lo, gamma, a_coeffs, b_coeffs, n_lo, n_hi)
    a_norm = math.sqrt(sum(abs(v) ** 2 for v in a_coeffs.values()))
    b_norm = math.sqrt(sum(abs(v) ** 2 for v in b_coeffs.values()))
    d_val = divisor_concentration(q_lo, n_hi)
    m_val = min(a_coeffs)
    k_val = min(b_coeffs)
    n_val = n_lo
    u, r, h, delta = _gamma_approximation(gamma, max(2, n_hi - 1))
    log_n = math.log(max(3, n_hi))
    q32 = q_lo ** 1.5
    main = (q_lo**2 * math.sqrt(m_val)
            + q32 * math.sqrt(h) * math.sqrt(n_val) / math.sqrt(r)
            + q32 * math.sqrt(h) * math.sqrt(k_val)
            + q32 * math.sqrt(r))
    rhs = a_norm * b_norm * log_n ** 1.5 * math.sqrt(max(1, d_val)) * main
    out = {"lhs": lhs, "rhs": rhs,
           "ratio": lhs / rhs if rhs else math.inf,
           "d_value": d_val, "a_norm": a_norm, "b_norm": b_norm,
           "r": r, "h": h}
    if all(v == 1 for v in b_coeffs.values()):
        rhs_i = (q32 * log_n * d_val * (q_lo * m_val * h / r + 1.0)
                 * (k_val / q_lo + r))
        out["rhs_type1_i"] = rhs_i
        out["ratio_type1_i"] = lhs / rhs_i if rhs_i else math.inf
        out["type1_i_applies"] = 4 * m_val * q_lo < n_val
        if 4 * m_val * q_lo < r and 4 * m_val * q_lo * delta <= 1 / (2 * r):
            rhs_ii = log_n * d_val * q32 * r
            out["rhs_type1_ii"] = rhs_ii
            out["ratio_type1_ii"] = lhs / rhs_ii if rhs_ii else math.inf
    return out


def split_partition_check(q_cap: int) -> bool:
    """Every nonprincipal character mod q <= Q comes from a unique primitive
    character of some modulus q1 > 1 dividing q; checked by counting."""
    if q_cap < 1:
        raise PreconditionError("Q must be >= 1", q_cap=q_cap)
    if q_cap > 10**3:
        raise PreconditionError("counting check capped at Q = 10^3",
                                q_cap=q_cap)
    lhs = sum(arith.euler_phi(q) - 1 for q in range(1, q_cap + 1))
    rhs = 0
    for q1 in range(2, q_cap + 1):
        rhs += primitive_count_formula(q1) * (q_cap // q1)
    return lhs == rhs
