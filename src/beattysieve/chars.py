"""Dirichlet characters on a generated grid of units.

The unit group mod q splits over the prime powers of q: odd p^e parts are
cyclic under a primitive root chosen to work for every exponent at once,
and 2^e parts (e >= 3) split as {+-1} x <5>.  A character is a tuple of
exponents against those cyclic factors, and every value is carried as a
root-of-unity exponent (an integer mod the group exponent) until a sum
actually needs complex numbers.  That keeps orthogonality and conductor
logic exact.

Each CharTable lays the units mod q out on the grid of cyclic-factor
orders: the entry at coordinates t is the unit whose dlogs are t.  The grid
is generated, not looked up: each prime power contributes the powers of
its generators on its own axes, and CRT joins them.  No dlog table is
built; a single value chi(j) finds j's coordinates in the inverse
permutation of the grid, made on first use.  The conductors of all phi(q)
characters come in one pass over the mixed-radix components of the
character indices: an odd p^e component with index c != 0 contributes
p^(e - min(v_p(c), e-1)); a 2^e component (e >= 3) with 5-index c2 != 0
contributes 2^(e - v_2(c2)), else 4 when the sign index is set.

Character sums are evaluated for a whole modulus at once: for any function
f of the residue, entry -c of fftn(f[grid]), the n-dimensional DFT over the
grid, is the sum of f against chi_c.  That one transform is the package's
only FFT.  bilinear_S takes one per modulus, O(phi(q) log phi(q)) instead
of O(q phi(q)) for one character at a time.  The Gauss sums G(chi, 1) of
all characters come from one transform of e(-j/q), and G(chi, n) =
conj(chi(n)) G(chi, 1) for n prime to q.  These sums are floats; the Gauss
sums differ in their last bits from a direct O(q) sum.
"""
from __future__ import annotations

import bisect
import cmath
import math
from functools import lru_cache

import numpy as np

from . import arith, dioph
from .errors import BudgetError, PreconditionError

TABLE_MODULUS_CAP = 10**6
# bilinear_S's cost model runs at 9-14 ns per operation on a shared 2-vCPU
# x86-64 VM (table builds, binning, FFT; timed near the budget at Q = 2835
# with one pair and at Q = 70 with 1.2 * 10**6 pairs), so a run at the
# budget takes 1-1.4 s there.  The budget stays where the pair loop of
# earlier versions put it (15-30 ns per operation, about 3 s), so the same
# requests are refused.
BILINEAR_OP_BUDGET = 10**8
# divisor_concentration counts in an int64 table of n_hi entries: 160 MB and
# about 0.2 s at the budget
DIVISOR_TABLE_BUDGET = 2 * 10**7
# _window_products forms the m * k products in blocks of about this many
# cells: 8 MB of int64 per block
OUTER_BLOCK = 2**20


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


def _powers(g: int, count: int, m: int) -> np.ndarray:
    """g^t mod m for t in [0, count) as int64: a row of baby steps in
    Python times a numpy column of giant steps, so the Python work is
    O(sqrt(count)); m <= 10^6 keeps every product below 10^12.  The row
    is at least 64 long, since a loop that short costs less than the numpy
    calls, so a group of at most 64 units takes the loop alone."""
    step = max(64, math.isqrt(count - 1) + 1)
    baby = [1]
    for _ in range(min(step, count) - 1):
        baby.append(baby[-1] * g % m)
    if count <= step:
        return np.array(baby, dtype=np.int64)
    big = baby[-1] * g % m
    giant = [1]
    for _ in range(-(-count // step) - 1):
        giant.append(giant[-1] * big % m)
    grid = np.multiply.outer(np.array(giant, dtype=np.int64),
                             np.array(baby, dtype=np.int64)) % m
    return grid.ravel()[:count]


def _valuation(c: np.ndarray, p: int, cap: int) -> np.ndarray:
    """min(v_p(c), cap) elementwise (cap where c == 0).  Each power p^k
    tests only the entries that p^(k-1) divides."""
    v = np.zeros(len(c), dtype=np.int64)
    live = np.arange(len(c))
    for k in range(1, cap + 1):
        live = live[c[live] % p**k == 0]
        v[live] += 1
    return v


class _Factor:
    """One prime-power block of the unit group and its cyclic factors."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modulus = p**e
        if p != 2:
            self.orders = (self.modulus // p * (p - 1),)
        elif e == 1:
            self.orders = ()
        elif e == 2:
            self.orders = (2,)
        else:
            self.orders = (2, 2 ** (e - 2))

    def units(self) -> np.ndarray:
        """The units mod p^e at their dlog coordinates, of shape orders:
        g^t for odd p, [1, 3] mod 4, and (-1)^a 5^b mod 2^e (e >= 3) with
        the sign axis first; mod 2 the one unit 1, with no axis."""
        m = self.modulus
        if self.p != 2:
            return _powers(_primitive_root(self.p), self.orders[0], m)
        if self.e == 1:
            return np.ones((), dtype=np.int64)
        if self.e == 2:
            return np.array([1, 3], dtype=np.int64)
        return np.multiply.outer(np.array([1, m - 1], dtype=np.int64),
                                 _powers(5, self.orders[1], m)) % m

    def conductors(self, indices: list) -> np.ndarray:
        """This block's conductor for every character at once, given one
        index array per cyclic factor."""
        p, e = self.p, self.e
        if not indices:
            return np.ones(1, dtype=np.int64)
        c = indices[-1]
        out = np.where(c != 0, p ** (e - _valuation(c, p, e - 1)), 1)
        if p == 2 and e >= 3:
            out[(c == 0) & (indices[0] != 0)] = 4
        return out


class Character:
    """One character: per-cyclic-factor exponent indices against a table."""

    __slots__ = ("table", "index", "components")

    def __init__(self, table: "CharTable", index: int, components: tuple):
        self.table = table
        self.index = index
        self.components = components

    @property
    def q(self) -> int:
        return self.table.q

    def exponent(self, j: int):
        """chi(j) as t with chi(j) = e(t / group_exponent); None off units.

        j's dlogs are the coordinates of its grid cell, unravelled in C
        order (the last axis fastest).
        """
        table = self.table
        cell = int(table.position()[j % table.q])
        if cell < 0:
            return None
        big_l = table.group_exponent
        t = 0
        for c, n in zip(reversed(self.components), reversed(table.cyc_orders)):
            cell, d = divmod(cell, n)
            t += c * d * (big_l // n)
        return t % big_l

    def __call__(self, j: int) -> complex:
        t = self.exponent(j)
        if t is None:
            return 0j
        return self.table.root_of_unity(t)

    @property
    def conductor(self) -> int:
        return int(self.table.conductors()[self.index])

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q


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
        t = self._table
        rows = (zip(*(d.tolist() for d in t._digits())) if t.cyc_orders
                else [()])
        return (Character(t, i, comps) for i, comps in enumerate(rows))


class CharTable:
    """All characters mod q, on one grid of units shared across them."""

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
        self._grid = None
        self._position = None
        self._conductors = None
        self._gauss_one = None

    def root_of_unity(self, t: int) -> complex:
        if self._roots is None:
            big_l = self.group_exponent
            self._roots = np.exp(2j * np.pi * np.arange(big_l) / big_l)
        return complex(self._roots[t % self.group_exponent])

    def grid(self) -> np.ndarray:
        """The units mod q as an int64 array of shape cyc_orders ((1,) with
        no cyclic factor): the entry at coordinates t is the unit whose
        dlogs are t; cached.

        Each factor's units lie along its own axes, in cyc_orders order, and
        CRT joins them: the unit is the sum of u_f c_f mod q, with the
        idempotent c_f = (q/m_f) ((q/m_f)^-1 mod m_f).
        """
        if self._grid is None:
            grid = np.zeros((), dtype=np.int64)
            for f in self.factors:
                cofactor = self.q // f.modulus
                idempotent = cofactor * pow(cofactor, -1, f.modulus)
                grid = np.add.outer(grid, f.units() * idempotent % self.q)
            self._grid = (grid % self.q).reshape(self.cyc_orders or (1,))
        return self._grid

    def position(self) -> np.ndarray:
        """The inverse of grid(): each residue's C-order cell index, -1 off
        the units; length q, cached."""
        if self._position is None:
            position = np.full(self.q, -1, dtype=np.int64)
            position[self.grid().ravel()] = np.arange(self.phi)
            self._position = position
        return self._position

    def _digits(self) -> list:
        """The mixed-radix components of every character index, one array
        per cyclic factor; the first factor's varies fastest, as in
        characters[i]."""
        rem = np.arange(self.phi, dtype=np.int64)
        digits = []
        for n in self.cyc_orders:
            digits.append(rem % n)
            rem //= n
        return digits

    def conductors(self) -> np.ndarray:
        """Conductor of every character, by index; cached."""
        if self._conductors is None:
            digits = iter(self._digits())
            out = np.ones(self.phi, dtype=np.int64)
            for f in self.factors:
                out *= f.conductors([next(digits) for _ in f.orders])
            self._conductors = out
        return self._conductors

    def primitive_count(self) -> int:
        return int(np.count_nonzero(self.conductors() == self.q))

    def _transform(self, values_by_residue: np.ndarray) -> np.ndarray:
        """DFT over the grid of values indexed by residue mod q.

        Entry -c is the sum of the values against the character with
        indices c.  q = 1, 2 have no cyclic factor: one unit, one
        character, one cell.
        """
        return np.fft.fftn(values_by_residue[self.grid()])

    def _gauss_transform(self, n: int) -> np.ndarray:
        js = np.arange(self.q)
        return self._transform(np.exp(-2j * np.pi * (n * js % self.q) / self.q))


@lru_cache(maxsize=128)
def char_table(q: int) -> CharTable:
    return CharTable(q)


def primitive_count_formula(q: int) -> int:
    """Number of primitive characters mod q: sum over d | q of mu(q/d) phi(d)."""
    divisors = [1]
    for p, e in arith.factorize(q):
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sum(arith.mobius(q // d) * arith.euler_phi(d) for d in divisors)


def gauss_sum(chi: Character, n: int) -> complex:
    """Full-period twisted sum  sum_{j=1}^q chi(j) e(-n j / q).

    For n prime to q, j -> j/n gives conj(chi(n)) G(chi, 1), read from the
    table's one transform of e(-j/q), built on first use; any other n takes
    a transform of its own, not kept.
    """
    table = chi.table
    q = table.q
    if q == 1:
        return complex(1.0)
    cell = tuple(-c % n_c for c, n_c in zip(chi.components, table.cyc_orders)) or (0,)
    n %= q
    if math.gcd(n, q) != 1:
        return complex(table._gauss_transform(n)[cell])
    if table._gauss_one is None:
        table._gauss_one = table._gauss_transform(1)
    return table.root_of_unity(-chi.exponent(n)) * complex(table._gauss_one[cell])


def _py_complex_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise with each of the four real products rounded on its
    own, as Python's complex multiply computes it; numpy's own complex
    multiply may fuse them and round differently."""
    x, y = x.astype(complex), y.astype(complex)
    out = np.empty(len(x), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _window_products(gamma, a_coeffs: dict, b_coeffs: dict,
                     n_lo: int, n_hi: int):
    """Products n = m k in [n_lo, n_hi) and their a_m b_k e(gamma m k).

    An outer product of the nonzero keys, masked to the window, in the
    order of a loop over a's keys with b's keys inside; it is formed in
    blocks of rows of about OUTER_BLOCK cells, so a narrow window over long
    ranges stays small.  The products are int64 while max m * max k < 2^63
    and Python ints above, so none wraps into the window.  Returned as an
    integer array (int64 when n_hi allows it, else Python ints) and a
    complex array whose entries are the floats
    am * bk * cmath.exp(2j * cmath.pi * gamma * n) would give.
    """
    a = {m: am for m, am in a_coeffs.items() if am != 0}
    b = {k: bk for k, bk in b_coeffs.items() if bk != 0}
    wide = bool(a and b) and int(max(a)) * int(max(b)) >= 2**63
    ms = np.array(list(a), dtype=object if wide else np.int64)
    ks = np.array(list(b), dtype=object if wide else np.int64)
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    step = max(1, OUTER_BLOCK // max(1, len(ks)))
    for lo in range(0, len(ms), step):
        block = np.multiply.outer(ms[lo:lo + step], ks)
        r, c = np.nonzero((block >= n_lo) & (block < n_hi))
        rows.append(r + lo)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    ns = ms[rows] * ks[cols]
    am, bk = np.array(list(a.values()))[rows], np.array(list(b.values()))[cols]
    weights = (_py_complex_product(am, bk)
               if np.iscomplexobj(am) or np.iscomplexobj(bk) else am * bk)
    phases = np.exp(2j * cmath.pi * float(gamma) * ns.astype(float))
    return (ns.astype(np.int64 if n_hi <= 2**63 else object),
            _py_complex_product(weights, phases))


def _pair_count(a_coeffs: dict, b_coeffs: dict, n_lo: int, n_hi: int) -> int:
    """Number of pairs _window_products forms, without forming them: for
    each nonzero a_m, the nonzero b keys k with ceil(n_lo/m) <= k <
    ceil(n_hi/m), by bisection."""
    ks = sorted(k for k, bk in b_coeffs.items() if bk != 0)
    count = 0
    for m, am in a_coeffs.items():
        if am != 0:
            count += max(0, bisect.bisect_left(ks, -(-n_hi // m))
                         - bisect.bisect_left(ks, -(-n_lo // m)))
    return count


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
    ranges.  Per modulus the pairs are binned by n mod q, and one FFT of
    the bins read on the table's grid of units gives the sums of all phi(q)
    characters at once (entry c is the sum of the character with indices
    -c).  The work is about #pairs + q + phi(q) ceil(log2 phi(q)) per
    modulus; a request over BILINEAR_OP_BUDGET is refused with that
    estimate before any pair is formed or character table built.  The
    result is a float sum: float weights, float FFT.
    """
    if q_lo < 1:
        raise PreconditionError("Q must be >= 1", q=q_lo)
    _check_ranges(a_coeffs, b_coeffs)
    pairs = _pair_count(a_coeffs, b_coeffs, n_lo, n_hi)
    cost = 0
    for q in range(q_lo, 2 * q_lo):
        phi = arith.euler_phi(q)
        cost += pairs + q + phi * max(1, (phi - 1).bit_length())
    if cost > BILINEAR_OP_BUDGET:
        raise BudgetError("bilinear sum too large for the FFT evaluator",
                          estimate=cost)
    ns, ws = _window_products(gamma, a_coeffs, b_coeffs, n_lo, n_hi)
    ws_re, ws_im = np.ascontiguousarray(ws.real), np.ascontiguousarray(ws.imag)
    total = 0.0
    for q in range(q_lo, 2 * q_lo):
        res = (ns % q).astype(np.intp, copy=False)
        by_residue = (np.bincount(res, weights=ws_re, minlength=q)
                      + 1j * np.bincount(res, weights=ws_im, minlength=q))
        total += float(np.abs(char_table(q)._transform(by_residue)).sum())
    return float(total)


def divisor_concentration(q_lo: int, n_hi: int) -> int:
    """max over n < n_hi of #{q in [Q, 2Q) : q | n} (the D of the bound).

    The counts live in a table of n_hi entries; an n_hi over
    DIVISOR_TABLE_BUDGET is refused with that size before it is allocated.
    """
    if n_hi <= 1:
        return 0
    if n_hi > DIVISOR_TABLE_BUDGET:
        raise BudgetError(f"divisor table of {n_hi} entries, over the budget "
                          f"of {DIVISOR_TABLE_BUDGET}", estimate=n_hi)
    counts = np.zeros(n_hi, dtype=np.int64)
    for q in range(q_lo, 2 * q_lo):
        if q < n_hi:
            counts[q::q] += 1
    return int(counts.max())


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
    applicability conditions checked.  D is computed first, so a window
    too long for its table is refused before the bilinear sum runs.
    """
    d_val = divisor_concentration(q_lo, n_hi)
    lhs = bilinear_S(q_lo, gamma, a_coeffs, b_coeffs, n_lo, n_hi)
    a_norm = math.sqrt(sum(abs(v) ** 2 for v in a_coeffs.values()))
    b_norm = math.sqrt(sum(abs(v) ** 2 for v in b_coeffs.values()))
    m_val = min(a_coeffs)
    k_val = min(b_coeffs)
    n_val = n_lo
    best = dioph.last_convergent(gamma, max(2, n_hi - 1))
    r = best.denominator
    delta = abs(float(gamma) - best.numerator / r)
    h = max(r**2 * delta, 1e-12)
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
