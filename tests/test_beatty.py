"""Beatty membership: exact surds, torus windows, enumeration."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beattysieve import beatty
from beattysieve.beatty import (BeattyParams, TorusInterval, _to_fraction,
                                beatty_enumerate, beatty_members,
                                membership_interval,
                                pigeonhole_shift, recovered_index,
                                shift_intersection, sqrt_fraction,
                                torus_member)
from beattysieve.equidist import _arc_hits
from beattysieve.errors import PreconditionError


def _arc_contains(arc, x):
    """x mod 1 lies in the half open arc (left, left + length]: the
    Fraction reference for the integer arc route."""
    return 0 < (x - arc.left) % 1 <= arc.length


def _arc_right(arc):
    return (arc.left + arc.length) % 1


def test_sqrt_fraction_is_tight():
    s = sqrt_fraction(2)
    # default surd precision is 40 digits, so the square misses by < 10^-39
    assert abs(s * s - 2) < Fraction(1, 10**39)
    with pytest.raises(ValueError):
        sqrt_fraction(-1)


def test_params_validation():
    with pytest.raises(PreconditionError):
        BeattyParams.make(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        BeattyParams.make(Fraction(3, 2), Fraction(7, 4))


def test_quadratic_params_expose_both_views(sqrt2, golden):
    assert sqrt2.alpha == pytest.approx(math.sqrt(2))
    assert sqrt2.gamma == pytest.approx(1 / math.sqrt(2))
    assert abs(sqrt2.alpha_exact**2 - 2) < Fraction(1, 10**39)
    assert golden.alpha == pytest.approx((1 + math.sqrt(5)) / 2)
    assert golden.gamma == pytest.approx(2 / (1 + math.sqrt(5)))
    assert sqrt2.beta == 0 and sqrt2.beta_exact == 0


def test_enumerate_small_windows(sqrt2):
    assert beatty_enumerate(sqrt2, 1, 8) == [1, 2, 4, 5, 7]
    assert beatty_enumerate(sqrt2, 100, 101) == [100]
    assert beatty_enumerate(sqrt2, 100, 100) == []
    near_two = BeattyParams.make(Fraction(2) + Fraction(1, 10**12))
    assert beatty_enumerate(near_two, 1, 10) == [2, 4, 6, 8]


def test_member_and_recovered_index(sqrt2):
    assert torus_member(sqrt2, 2)
    assert not torus_member(sqrt2, 3)
    assert torus_member(sqrt2, 4)
    assert recovered_index(sqrt2, 1) == 1
    assert recovered_index(sqrt2, 4) == 3
    with pytest.raises(PreconditionError):
        torus_member(sqrt2, 0)
    # numpy integers (as a factor table returns them) meet the 40-digit
    # denominator as Python ints, not as int64
    assert torus_member(sqrt2, np.int64(1000003))
    assert recovered_index(sqrt2, np.int64(1000003)) == 707109
    assert beatty_enumerate(sqrt2, np.int64(99), np.int64(102)) == [100, 101]


def test_recovered_index_inverts_the_floor(sqrt2, golden):
    for params in (sqrt2, golden):
        for n in beatty_enumerate(params, 1, 200):
            k = recovered_index(params, n)
            assert math.floor(params.alpha_exact * k + params.beta_exact) == n


def test_torus_interval_boundary_conventions():
    ival = TorusInterval(Fraction(1, 4), Fraction(1, 2))
    assert not _arc_contains(ival, Fraction(1, 4))    # left end excluded
    assert _arc_contains(ival, Fraction(3, 4))        # right end included
    assert _arc_contains(ival, Fraction(1, 2))
    assert _arc_right(ival) == Fraction(3, 4)
    wrap = TorusInterval(Fraction(9, 10), Fraction(1, 5))
    assert _arc_contains(wrap, Fraction(1, 20))
    assert _arc_right(wrap) == Fraction(1, 10)
    with pytest.raises(PreconditionError):
        TorusInterval(Fraction(0), Fraction(0))
    with pytest.raises(PreconditionError):
        TorusInterval(Fraction(0), Fraction(3, 2))


def test_membership_interval_characterizes_members(sqrt2):
    ival = membership_interval(sqrt2)
    assert float(ival.length) == pytest.approx(sqrt2.gamma)
    assert float(ival.left) == pytest.approx(0.2928932188134525)
    assert _arc_right(ival) == 0
    for n in range(1, 500):
        assert torus_member(sqrt2, n) == _arc_contains(ival,
                                                       sqrt2.gamma_exact * n)


def test_shift_intersection_shrinks_the_window():
    base = TorusInterval(Fraction(1, 5), Fraction(3, 10))
    narrow = BeattyParams.make(Fraction(20, 19))
    out = shift_intersection(base, narrow, 1, Fraction(1, 10))
    assert out.left == Fraction(1, 5)
    assert out.length == Fraction(1, 4)
    assert float(_arc_right(out)) == pytest.approx(0.45)
    with pytest.raises(PreconditionError):
        shift_intersection(base, narrow, 0, Fraction(1, 10))
    with pytest.raises(PreconditionError):
        shift_intersection(base, narrow, 1, Fraction(1, 5))


def _quadratic_pigeonhole_shift(points, length):
    """Every candidate z = x_j - length against every point, in the inputs'
    own arithmetic: the O(M^2) reference for pigeonhole_shift."""
    pts = list(points)
    if not pts:
        return 0, []
    best = None
    for x in pts:
        z = (x - length) % 1
        hits = [j for j, y in enumerate(pts) if 0 < (y - z) % 1 <= length]
        key = (-len(hits), z)
        if best is None or key < best[0]:
            best = (key, z, hits)
    return best[1], best[2]


@settings(max_examples=300, deadline=None)
@given(den=st.integers(1, 24), nums=st.lists(st.integers(0, 10**6), min_size=1,
                                             max_size=30),
       length_num=st.integers(1, 10**6), at_z=st.booleans(),
       repeat=st.booleans(),
       others=st.lists(st.fractions(0, 1, max_denominator=50), max_size=5))
def test_pigeonhole_shift_matches_the_quadratic_oracle(den, nums, length_num,
                                                       at_z, repeat, others):
    # a small denominator puts many points on equal values and on arc
    # endpoints; at_z adds a point exactly at the left end x_0 - length of
    # a candidate arc (excluded), whose right end x_0 is itself a point
    den = max(den, 2)
    length = Fraction(length_num % (den - 1) + 1, den)
    points = [Fraction(k % (3 * den), den) % 1 for k in nums]
    points += [x % 1 for x in others]
    if at_z:
        points.append((points[0] - length) % 1)
    if repeat:
        points += points[:3]
    z, hits = pigeonhole_shift(points, length)
    assert (z, hits) == _quadratic_pigeonhole_shift(points, length)
    assert 0 <= z < 1


def test_pigeonhole_shift_single_point_and_float_inputs():
    assert pigeonhole_shift([Fraction(1, 3)], Fraction(1, 2)) \
        == (Fraction(5, 6), [0])
    assert pigeonhole_shift([], Fraction(1, 2)) == (0, [])
    # floats are read at their binary value
    z, hits = pigeonhole_shift([0.25, 0.75], 0.5)
    assert (z, hits) == (Fraction(1, 4), [1])


def test_pigeonhole_shift_pinned_cases(sqrt2, table):
    z, hits = pigeonhole_shift([0.1, 0.2, 0.9], 0.5)
    assert z == pytest.approx(0.7)
    assert len(hits) == 3
    grid = [Fraction(j, 100) for j in range(100)]
    _, grid_hits = pigeonhole_shift(grid, Fraction(37, 100))
    assert len(grid_hits) == 37
    primes = [int(p) for p in table.primes() if p > 20][:20]
    gamma = Fraction(1 / math.sqrt(2))
    _, prime_hits = pigeonhole_shift([(gamma * p) % 1 for p in primes],
                                     Fraction(1, 10))
    assert len(prime_hits) == 3
    with pytest.raises(PreconditionError):
        pigeonhole_shift([0.5], 0.0)


def test_pigeonhole_never_below_the_proportional_floor():
    rng = random.Random(17)
    for _ in range(100):
        count = rng.randrange(1, 40)
        pts = [Fraction(rng.randrange(0, 997), 997) for _ in range(count)]
        length = Fraction(rng.randrange(1, 96), 100)
        _, hits = pigeonhole_shift(pts, length)
        assert len(hits) >= math.ceil(count * length)


def test_to_fraction_is_exact_for_every_input_kind():
    big = 2**62 + 1   # not a float64 value
    for x in (big, np.int64(big), Fraction(big, 3)):
        got = _to_fraction(x)
        assert got == Fraction(x)
        assert type(got.numerator) is int and type(got.denominator) is int
    assert _to_fraction(np.int64(big)) * 2 == 2 * big   # no int64 wraparound
    assert _to_fraction(0.1) == Fraction(3602879701896397, 2**55)
    assert _to_fraction(np.float32(0.5)) == Fraction(1, 2)


def _fraction_enumerate(params, lo, hi):
    """Members of [lo, hi) by stepping m and flooring alpha*m + beta in
    Fraction arithmetic: the reference for the integer comprehension."""
    if hi <= lo:
        return []
    a, b = params.alpha_exact, params.beta_exact
    m = max(1, int(math.floor((lo - b) / a)))
    out = []
    while True:
        val = int(math.floor(a * m + b))
        if val >= hi:
            break
        if val >= lo:
            out.append(val)
        m += 1
    return out


def _fraction_index(params, n):
    return int(math.ceil(params.gamma_exact * (n - params.beta_exact)))


def _fraction_member(params, n):
    """The rotation criterion in Fraction arithmetic: gamma*n mod 1 in the
    arc (gamma*beta - gamma, gamma*beta] and a recovered index >= 1."""
    g = params.gamma_exact
    left = (g * params.beta_exact - g) % 1
    return 0 < (g * n - left) % 1 <= g and _fraction_index(params, n) >= 1


def _alpha_beta(alpha, beta_num, beta_den):
    """(alpha, beta) with beta = beta_num/beta_den reduced into [0, floor(alpha)),
    so beta keeps its own denominator."""
    return BeattyParams(alpha, Fraction(beta_num % (beta_den * math.floor(alpha)),
                                        beta_den))


# rational alpha > 1 with a denominator unrelated to beta's, near-integer
# alpha (k + 10^-j, k - 10^-j) and 40-digit surds
ALPHAS = st.one_of(
    st.builds(lambda den, num: Fraction(den + 1 + num, den),
              st.integers(1, 10**9), st.integers(0, 4 * 10**9)),
    st.builds(lambda k, j, sign: k + sign * Fraction(1, 10**j),
              st.integers(2, 6), st.integers(1, 15), st.sampled_from((1, -1))),
    st.builds(lambda k, c: (k + sqrt_fraction(k * k + 1)) / c,
              st.integers(1, 30), st.integers(1, 2)))
BETA_DENS = st.one_of(st.just(1), st.integers(2, 10**9))


@settings(max_examples=300, deadline=None)
@given(alpha=ALPHAS, beta_num=st.integers(0, 10**12), beta_den=BETA_DENS,
       lo=st.one_of(st.integers(-3, 3), st.integers(4, 10**12)),
       width=st.one_of(st.integers(-3, 1), st.integers(2, 200)))
def test_integer_kernels_match_the_fraction_definitions(alpha, beta_num,
                                                        beta_den, lo, width):
    params = _alpha_beta(alpha, beta_num, beta_den)
    hi = lo + width
    assert beatty_enumerate(params, lo, hi) == _fraction_enumerate(params, lo, hi)
    for n in range(max(1, lo), max(1, lo) + max(width, 1) + 2):
        assert torus_member(params, n) == _fraction_member(params, n)
        assert recovered_index(params, n) == _fraction_index(params, n)


@settings(max_examples=200, deadline=None)
@given(alpha=ALPHAS, beta_num=st.integers(0, 10**12), beta_den=BETA_DENS,
       shift=st.integers(0, 3), left=st.fractions(0, 1, max_denominator=10**6),
       length=st.fractions(0, 1, max_denominator=10**6),
       ns=st.lists(st.integers(1, 10**9), max_size=60))
def test_integer_arc_route_matches_torus_interval(alpha, beta_num, beta_den,
                                                  shift, left, length, ns):
    # the membership arc of a Beatty pair, and arbitrary rational arcs
    params = _alpha_beta(alpha, beta_num, beta_den)
    gamma = params.gamma_exact
    arcs = [membership_interval(params)]
    if 0 < length < 1:
        arcs.append(TorusInterval(left % 1, length))
    if shift:
        arcs.append(TorusInterval(arcs[0].left, arcs[0].length * Fraction(shift, 4)))
    for arc in arcs:
        assert _arc_hits(arc, gamma, ns) == [
            n for n in ns if _arc_contains(arc, (gamma * n) % 1)]


def _comprehension_enumerate(params, lo, hi):
    """One integer floor division per member, (A*m + B) // D over the
    common denominator D of alpha and beta: the exact reference for
    beatty_members."""
    alpha, beta = params.alpha_exact, params.beta_exact
    d = math.lcm(alpha.denominator, beta.denominator)
    a = alpha.numerator * (d // alpha.denominator)
    b = beta.numerator * (d // beta.denominator)
    m_lo = max(1, -((b - d * lo) // a))
    m_hi = -((b - d * hi) // a)
    return [(a * m + b) // d for m in range(m_lo, m_hi)]


def _check_members(params, lo, hi):
    got = beatty_members(params, lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == _comprehension_enumerate(params, lo, hi)
    assert beatty_enumerate(params, lo, hi) == got.tolist()
    return got


# rational alpha with a small denominator puts many alpha*m + beta exactly
# on integers, where only the exact fallback decides the floor
SMALL_RATIONALS = st.builds(lambda den, extra: Fraction(den + extra, den),
                            st.integers(1, 12), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(SMALL_RATIONALS, ALPHAS),
       beta_num=st.integers(0, 10**12),
       beta_den=st.one_of(st.integers(1, 12), BETA_DENS),
       lo=st.one_of(st.integers(-5, 5), st.integers(6, 10**12),
                    st.integers(10**18 - 10**9, 10**18 + 10**9)),
       width=st.one_of(st.integers(-3, 1), st.integers(2, 3000)))
def test_beatty_members_match_the_comprehension(alpha, beta_num, beta_den,
                                                lo, width):
    # beta != 0 in most draws; lo <= 0 starts below the first member;
    # width <= 0 gives an empty window; lo near 10^18 uses the same
    # float route as lo near 1
    _check_members(_alpha_beta(alpha, beta_num, beta_den), lo, lo + width)


def test_beatty_members_edge_windows(sqrt2):
    assert _check_members(sqrt2, 5, 5).size == 0
    assert _check_members(sqrt2, 9, 3).size == 0
    assert _check_members(sqrt2, -10, 3).tolist() == [1, 2]
    third = BeattyParams.make(Fraction(7, 3), Fraction(1, 3))
    assert _check_members(third, 0, 2).size == 0     # first member is 2
    assert _check_members(third, 0, 10).tolist() == [2, 5, 7, 9]
    # r0/D = 1 - 10^-40 rounds to 1.0 in float, one too high at every j
    near_one = BeattyParams(Fraction(2), Fraction(10**40 - 1, 10**40))
    assert _check_members(near_one, 1, 12).tolist() == [2, 4, 6, 8, 10]
    # a wide window far out: the bound depends on the width only
    _check_members(sqrt2, 10**18, 10**18 + 200_000)
    _check_members(BeattyParams.make(Fraction(10**6 + 1, 10**6)),
                   10**17, 10**17 + 100_000)
    with pytest.raises(PreconditionError):
        beatty_members(sqrt2, 2**63 - 10, 2**63 + 10)


def test_beatty_members_take_the_exact_route_where_floats_cannot_tell(
        monkeypatch):
    seen = []
    float_floors = beatty._float_floors

    def spy(count, alpha, start):
        whole, unsure = float_floors(count, alpha, start)
        seen.append((whole.copy(), unsure))
        return whole, unsure

    monkeypatch.setattr(beatty, "_float_floors", spy)

    def float_only(params, lo, hi):
        seen.clear()
        exact = _check_members(params, lo, hi)
        whole, unsure = seen[0]
        return whole + exact[0], unsure, exact   # member 0 is c0 itself

    # alpha = 3/2: every second value alpha*m is an integer, and exactly so
    # in float
    approx, unsure, exact = float_only(BeattyParams.make(Fraction(3, 2)),
                                       1000, 2000)
    assert unsure.tolist() == list(range(1, len(exact), 2))
    assert approx.tolist() == exact.tolist()
    # alpha = 4/3 is not a float: from lo = 1, r0/D + j*alpha should hit an
    # integer at every j = 2 mod 3, and the float value often lies just below
    approx, unsure, exact = float_only(BeattyParams.make(Fraction(4, 3)),
                                       1, 20_001)
    assert unsure.tolist() == list(range(2, len(exact), 3))
    wrong = np.flatnonzero(approx != exact)
    assert len(wrong) > 1000 and set(wrong.tolist()) <= set(unsure.tolist())
    # a quadratic irrational: no value comes near enough to an integer
    _, unsure, _ = float_only(BeattyParams.quadratic(0, 1, 2), 10**6, 2 * 10**6)
    assert unsure.size == 0
