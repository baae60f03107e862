"""Beatty membership: exact surds, torus windows, enumeration."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beattysieve import arith, beatty
from beattysieve.beatty import (BeattyParams, TorusInterval,
                                beatty_enumerate, beatty_members,
                                membership_interval,
                                pigeonhole_shift, recovered_index,
                                shift_intersection, sqrt_fraction,
                                torus_member)
from beattysieve.errors import PreconditionError
from regcond_oracles import arc_hits as oracle_arc_hits


def _arc_contains(arc, x):
    """x mod 1 lies in the half open arc (left, left + length]: the
    Fraction reference for the integer arc route."""
    return 0 < (x - arc.left) % 1 <= arc.length


def _arc_integers(arc, gamma):
    """(g, left, length, den): gamma and the arc (left, left + length] over
    one common denominator den, so n is on the arc iff
    0 < (g n - left) mod den <= length."""
    (g, left, length), den = arith.common_denominator(
        x.as_integer_ratio() for x in (gamma, arc.left, arc.length))
    return g, left, length, den


def _arc_hits(arc, gamma, ns):
    """The n of ns with frac(gamma n) on the arc, as int64, by arc_mask:
    the regularity report's arc route."""
    ns = np.asarray(ns, dtype=np.int64)
    g, left, length, den = _arc_integers(arc, gamma)
    return ns[beatty.arc_mask(g, -left, den, ns, length)]


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


def test_quadratic_reads_numpy_integers_exactly():
    assert BeattyParams.quadratic(np.int64(1), 1, 2) == BeattyParams.quadratic(1, 1, 2)


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


def _pigeonhole_on_fractions(points, length):
    """pigeonhole_shift on rational points and length (a float at its
    binary value) put over one common denominator, z read back as a
    Fraction."""
    (arc, *xs), den = arith.common_denominator(
        arith.to_fraction(x).as_integer_ratio() for x in (length, *points))
    z, hits = pigeonhole_shift(xs, arc, den)
    return Fraction(z, den), hits


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
    z, hits = _pigeonhole_on_fractions(points, length)
    assert (z, hits) == _quadratic_pigeonhole_shift(points, length)
    assert 0 <= z < 1


def test_pigeonhole_shift_single_point_and_float_inputs():
    # 1/3 on an arc of 1/2, over 6
    assert pigeonhole_shift([2], 3, 6) == (5, [0])
    assert pigeonhole_shift([], 3, 6) == (0, [])
    # a float is put over the common denominator at its binary value
    z, hits = _pigeonhole_on_fractions([0.25, 0.75], 0.5)
    assert (z, hits) == (Fraction(1, 4), [1])


def test_pigeonhole_shift_pinned_cases(sqrt2, table):
    z, hits = _pigeonhole_on_fractions([0.1, 0.2, 0.9], 0.5)
    assert z == pytest.approx(0.7)
    assert len(hits) == 3
    _, grid_hits = pigeonhole_shift(range(100), 37, 100)
    assert len(grid_hits) == 37
    primes = [int(p) for p in table.primes() if p > 20][:20]
    gamma = Fraction(1 / math.sqrt(2))
    _, prime_hits = _pigeonhole_on_fractions([(gamma * p) % 1 for p in primes],
                                             Fraction(1, 10))
    assert len(prime_hits) == 3
    for arc in (0, 2, -1):
        with pytest.raises(PreconditionError):
            pigeonhole_shift([1], arc, 2)


def test_pigeonhole_never_below_the_proportional_floor():
    # points j/997 and the arc i/100, over 99 700
    rng = random.Random(17)
    for _ in range(100):
        count = rng.randrange(1, 40)
        pts = [100 * rng.randrange(0, 997) for _ in range(count)]
        arc = 997 * rng.randrange(1, 96)
        _, hits = pigeonhole_shift(pts, arc, 99700)
        assert len(hits) >= math.ceil(Fraction(count * arc, 99700))


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
        assert _arc_hits(arc, gamma, ns).tolist() == [
            n for n in ns if _arc_contains(arc, (gamma * n) % 1)]


class _ModRecorder(int):
    """An int that records each x of x % self: the integer arc test."""

    def __rmod__(self, x):
        self.seen.append(x)
        return int(x) % int(self)


def _arc_route(arc, gamma, ns):
    """arc_mask's hits on ns, checked against the oracle's, and the n,
    ascending, that took the integer test (read back from g*n - left)."""
    g, left, length, den = _arc_integers(arc, gamma)
    den = _ModRecorder(den)
    den.seen = []
    ns = np.asarray(ns, dtype=np.int64)
    got = ns[beatty.arc_mask(g, -left, den, ns, length)]
    assert got.dtype == np.int64
    assert got.tolist() == oracle_arc_hits(arc, gamma, ns.tolist())
    return got, sorted((x + left) // g for x in den.seen)


def _on_an_endpoint(arc, gamma, ns):
    return [n for n in ns.tolist()
            if (gamma * n - arc.left) % 1 in (0, arc.length)]


@pytest.mark.parametrize("alpha, beta", [(Fraction(3, 2), 0),
                                         (Fraction(5, 3), 0),
                                         (Fraction(5, 3), Fraction(4, 3))])
def test_arc_hits_take_the_integer_test_on_arc_endpoints(alpha, beta):
    # gamma = 2/3 or 3/5: frac(gamma n) lands exactly on an endpoint of the
    # membership and shift arcs for whole residue classes of n, and only
    # those n take the integer test
    params = BeattyParams.make(alpha, beta)
    gamma = params.gamma_exact
    base = membership_interval(params)
    ns = np.arange(1, 3001, dtype=np.int64)
    for arc in (base, TorusInterval(base.left, base.length / 2)):
        got, tested = _arc_route(arc, gamma, ns)
        endpoints = _on_an_endpoint(arc, gamma, ns)
        assert len(endpoints) >= len(ns) // 5
        assert tested == endpoints
        assert got.tolist() == [n for n in ns.tolist()
                                if _arc_contains(arc, gamma * n)]
    # with the index check, the membership arc gives the members
    assert [n for n in _arc_hits(base, gamma, ns).tolist()
            if recovered_index(params, n) >= 1] == beatty_enumerate(params, 1, 3001)


def test_arc_hits_with_float_endpoints():
    # a float gamma and float endpoints: n = 1 sits on the left endpoint,
    # and n = 4 within an ulp of the right one
    gamma = Fraction(0.1)
    arc = TorusInterval(0.1, 0.3)
    exact = TorusInterval(Fraction(0.1), Fraction(0.3))
    ns = np.arange(-40, 400, dtype=np.int64)
    got, tested = _arc_route(arc, gamma, ns)
    near = []
    for n in ns.tolist():
        t = (gamma * n - exact.left) % 1
        if min(t, 1 - t, abs(t - exact.length)) < Fraction(1, 10**12):
            near.append(n)
    assert 1 in tested and 4 in tested
    assert set(near) <= set(tested)
    assert got.tolist() == [n for n in ns.tolist()
                            if _arc_contains(exact, gamma * n)]


@pytest.mark.parametrize("ns", [2**53 + np.arange(-300, 300),
                                10**18 - np.arange(300),
                                np.array([-(10**18), 1, 2**62])])
def test_arc_hits_take_the_integer_test_far_out(ns, sqrt2):
    # past max|n| gamma ~ 2^49 delta exceeds 1/2, so every entry takes
    # the integer test
    gamma = sqrt2.gamma_exact
    base = membership_interval(sqrt2)
    for arc in (base, shift_intersection(base, sqrt2, 7, gamma / 20)):
        got, tested = _arc_route(arc, gamma, ns)
        assert tested == sorted(ns.tolist())
        assert got.tolist() == [n for n in ns.tolist()
                                if _arc_contains(arc, gamma * n)]


def test_arc_hits_on_scan_sized_windows(sqrt2):
    # quadratic irrational gamma: no prime of [10^5, 2*10^5) comes within
    # delta of an endpoint, so the float route decides all of them
    gamma = sqrt2.gamma_exact
    base = membership_interval(sqrt2)
    primes = arith.primes_in(10**5, 2 * 10**5)
    for arc in (base, shift_intersection(base, sqrt2, 7, gamma / 20)):
        got, tested = _arc_route(arc, gamma, primes)
        assert tested == [] and got.size > 1000


def test_arc_hits_of_no_points(sqrt2):
    got = _arc_hits(membership_interval(sqrt2), sqrt2.gamma_exact,
                    np.empty(0, dtype=np.int64))
    assert got.dtype == np.int64 and got.size == 0
    assert _arc_hits(membership_interval(sqrt2), sqrt2.gamma_exact,
                     []).tolist() == []


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
    fractional_parts = beatty._fractional_parts

    def spy(num, off, den, ns, cuts=()):
        whole, x, unsure = fractional_parts(num, off, den, ns, cuts)
        seen.append((whole.astype(np.int64), unsure))
        return whole, x, unsure

    monkeypatch.setattr(beatty, "_fractional_parts", spy)

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


def _sign(x):
    return (x > 0) - (x < 0)


INT64_NEAR_EDGES = st.one_of(st.integers(-3000, 3000),
                             st.integers(2**53 - 3000, 2**53 + 3000),
                             st.integers(2**63 - 3000, 2**63 - 1),
                             st.integers(-2**63, -2**63 + 3000),
                             st.integers(-2**63, 2**63 - 1))


@settings(max_examples=400, deadline=None)
@given(num=st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30)),
       off=st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30)),
       den=st.one_of(st.integers(1, 12), st.integers(1, 10**30)),
       ns=st.lists(INT64_NEAR_EDGES, min_size=1, max_size=40),
       cuts=st.lists(st.integers(0, 10**30), max_size=4))
# off/den = 2^45 + 1/3 and -2^50/3 round by about 2^-7 and 2^-5: the
# bound must grow with |off| and with the most negative n
@example(num=0, off=3 * 2**45 + 1, den=3, ns=[0], cuts=[1])
@example(num=1, off=0, den=3, ns=[-2**50, 5], cuts=[2])
def test_fractional_parts_decide_every_index_they_do_not_flag(num, off, den,
                                                              ns, cuts):
    # a small den puts many values exactly on an integer or on a cut, and
    # n near +-2^63 pushes the error bound past 1/2
    cuts = [c % den for c in cuts]
    whole, x, unsure = beatty._fractional_parts(
        num, off, den, np.array(ns, dtype=np.int64), cuts)
    flagged = unsure.tolist()
    assert flagged == sorted(set(flagged))
    for i, n in enumerate(ns):
        if i in flagged:
            continue
        q, r = divmod(num * n + off, den)
        assert int(whole[i]) == q
        assert 0 < x[i] < 1 and r != 0
        for c in cuts:
            assert _sign(Fraction(float(x[i])) - Fraction(c, den)) == _sign(r - c)


# alpha of 3/2, 4/3, 2 or 5/2 puts about half of all n exactly on the
# arc's endpoints, so most entries take the integer route
FLAG_HEAVY = st.sampled_from([Fraction(3, 2), Fraction(4, 3), Fraction(2),
                              Fraction(5, 2)])


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(FLAG_HEAVY, SMALL_RATIONALS, ALPHAS),
       beta_num=st.integers(0, 10**12),
       beta_den=st.one_of(st.integers(1, 12), BETA_DENS),
       start=st.one_of(st.integers(1, 5), st.integers(6, 10**7),
                       st.integers(10**12, 10**12 + 10**6),
                       st.integers(10**15 - 10**6, 10**15)),
       width=st.one_of(st.integers(-3, 0), st.integers(1, 400)))
def test_member_mask_and_count_match_the_scalar_kernels(alpha, beta_num,
                                                        beta_den, start, width):
    # start <= 5 lies below alpha for most draws, where a beta >= 1 gives
    # an arc hit of index 0; the error bound grows with n, to about 10^-3
    # near 10^12 and past 1/2 near 10^15, where every entry is flagged;
    # width <= 0 is an empty window
    params = _alpha_beta(alpha, beta_num, beta_den)
    ns = np.arange(start, start + max(width, 0), dtype=np.int64)
    got = beatty.member_mask(params, ns)
    assert got.dtype == bool
    assert got.tolist() == [torus_member(params, n) for n in ns.tolist()]
    for lo in (start - 3, start):
        assert (beatty.member_count(params, lo, start + width)
                == len(beatty_members(params, lo, start + width)))
    # the mask reads the entries as given: shuffled, repeated, sparse
    sparse = np.array([start + 7 * width, start, start, 1], dtype=np.int64)
    sparse = sparse[sparse >= 1]
    assert (beatty.member_mask(params, sparse).tolist()
            == [torus_member(params, n) for n in sparse.tolist()])


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2), Fraction(4, 3)])
@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 3), Fraction(5, 4)])
def test_member_mask_settles_flagged_entries_without_torus_member(
        alpha, beta, monkeypatch):
    # these alpha flag about half of all n at the arc's endpoints; beta =
    # 5/4 puts n = floor(beta) = 1 on the arc with index 0.  The mask must
    # settle all of them itself, leaving torus_member an independent check
    def refuse(*args):
        raise AssertionError("member_mask called torus_member")

    params = BeattyParams.make(alpha, beta)
    ns = np.concatenate([np.arange(1, 400), 10**12 + np.arange(400),
                         2**62 + np.arange(50)])
    expected = [_fraction_member(params, n) for n in ns.tolist()]
    monkeypatch.setattr(beatty, "torus_member", refuse)
    assert beatty.member_mask(params, ns).tolist() == expected
    if beta == Fraction(5, 4):
        assert _arc_contains(membership_interval(params), params.gamma_exact)
        assert not expected[0]


def test_member_mask_edges(sqrt2):
    assert beatty.member_mask(sqrt2, np.empty(0, dtype=np.int64)).size == 0
    # n = 0 is off the arc's endpoints here, so only the guard refuses it
    third = BeattyParams.make(Fraction(7, 3), Fraction(1, 3))
    with pytest.raises(PreconditionError):
        beatty.member_mask(third, np.array([5, 0], dtype=np.int64))
    assert beatty.member_count(sqrt2, 9, 3) == 0
    # near 2^62 every entry is flagged and the integers decide
    ns = 2**62 + np.arange(200, dtype=np.int64)
    assert (beatty.member_mask(sqrt2, ns).tolist()
            == [torus_member(sqrt2, n) for n in ns.tolist()])
