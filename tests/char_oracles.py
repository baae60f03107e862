"""One-at-a-time routes for the per-modulus tables of beattysieve.chars.

The package generates each modulus's grid of units and computes the
conductors, Gauss sums and bilinear pairs once per modulus in numpy; these
are the direct routes they replaced, kept to check them against: the dlog
tables filled by one loop over the generator's powers, the transform that
scattered values into the grid at those dlogs, the conductor walk over the
prime-power factors of one character, the O(q) Gauss sum of one character,
the pair loop with cmath, and the divisor sum over every d <= q.
"""
import cmath
import functools

import numpy as np

from beattysieve import arith


def dlog_tables(factor) -> tuple:
    """The dlog tables of one prime-power factor, filled unit by unit along
    the powers of its generator: () for 2, (table,) for 4 and odd p^e,
    (sign, five) for 2^e with e >= 3."""
    p, e, m = factor.p, factor.e, factor.modulus
    if p == 2 and e == 1:
        return ()
    if p == 2 and e == 2:
        table = np.full(m, -1, dtype=np.int64)
        table[1], table[3] = 0, 1
        return (table,)
    if p == 2:
        sign = np.full(m, -1, dtype=np.int64)
        five = np.full(m, -1, dtype=np.int64)
        acc = 1
        for b in range(factor.orders[1]):
            sign[acc], five[acc] = 0, b
            sign[m - acc], five[m - acc] = 1, b
            acc = acc * 5 % m
        return (sign, five)
    # the smallest primitive root mod p, plus p when it fails mod p^2
    g = next(r for r in range(2, p) if all(pow(r, (p - 1) // s, p) != 1
                                           for s, _ in arith.factorize(p - 1)))
    if pow(g, p - 1, p * p) == 1:
        g += p
    table = np.full(m, -1, dtype=np.int64)
    acc = 1
    for t in range(factor.orders[0]):
        table[acc] = t
        acc = acc * g % m
    return (table,)


def scatter_transform(table, values_by_residue: np.ndarray) -> np.ndarray:
    """The DFT over the cyclic-factor grid of the values at the units, each
    placed at the dlogs the loop-filled tables give it."""
    q = table.q
    js = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    cols = [t[js % f.modulus] for f in table.factors for t in dlog_tables(f)]
    grid = np.zeros(table.cyc_orders or (1,), dtype=complex)
    grid[tuple(cols)] = values_by_residue[js]
    return np.fft.fftn(grid)


@functools.lru_cache(maxsize=8)
def unit_dlog_matrix(table):
    """(the units mod q ascending, a row of dlogs per unit), read off the
    table's grid; kept for the last few tables, which character_values
    reads once per character."""
    flat = table.grid().ravel()
    order = np.argsort(flat)
    rows = np.zeros((len(flat), len(table.cyc_orders)), dtype=np.int64)
    if table.cyc_orders:
        rows[:] = np.column_stack(np.unravel_index(order, table.cyc_orders))
    return flat[order], rows


def _factor_conductor(factor, indices: tuple) -> int:
    if all(c == 0 for c in indices):
        return 1
    p, e = factor.p, factor.e
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


def conductor(table, components: tuple) -> int:
    """The conductor of the character with these indices, factor by factor."""
    out = 1
    pos = 0
    for factor in table.factors:
        width = len(factor.orders)
        out *= _factor_conductor(factor, components[pos:pos + width])
        pos += width
    return out


def character_values(chi) -> np.ndarray:
    """chi(j) for j in [0, q) as a complex array."""
    q = chi.q
    out = np.zeros(q, dtype=complex)
    js, dlogs = unit_dlog_matrix(chi.table)
    big_l = chi.table.group_exponent
    w = np.array([c * (big_l // n) for c, n in
                  zip(chi.components, chi.table.cyc_orders)], dtype=np.int64)
    t = (dlogs @ w) % big_l if len(w) else np.zeros(len(js), np.int64)
    out[js] = np.exp(2j * np.pi * t / big_l)
    return out


def direct_gauss_sum(chi, n: int) -> complex:
    """sum_{j=1}^q chi(j) e(-n j / q), one O(q) product."""
    q = chi.q
    if q == 1:
        return complex(1.0)
    js = np.arange(q)
    return complex(np.sum(character_values(chi)
                          * np.exp(-2j * np.pi * (n % q) * js / q)))


def window_products_loop(gamma, a_coeffs: dict, b_coeffs: dict,
                         n_lo: int, n_hi: int):
    """The pairs of _window_products, one pair at a time with cmath."""
    ns, ws = [], []
    g = float(gamma)
    for m, am in a_coeffs.items():
        if am == 0:
            continue
        for k, bk in b_coeffs.items():
            if bk == 0:
                continue
            n = m * k
            if n_lo <= n < n_hi:
                ns.append(n)
                ws.append(am * bk * cmath.exp(2j * cmath.pi * g * n))
    return ns, np.array(ws, dtype=complex)


def primitive_count_by_every_d(q: int) -> int:
    """sum over d | q of mu(q/d) phi(d), testing every d <= q."""
    return sum(arith.mobius(q // d) * arith.euler_phi(d)
               for d in range(1, q + 1) if q % d == 0)
