"""Progression error suprema and the distribution harnesses."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beattysieve import arith, beatty, equidist
from beattysieve.arith import euler_phi, to_fraction
from beattysieve.equidist import (ErrorRow, HarnessConfig, _class_counts,
                                  _rows_for_modulus, _window_points,
                                  bdh_harness, bv_harness,
                                  e_sup, lambda_points, li_difference,
                                  liouville_demo, regcond_report)
from beattysieve.errors import BudgetError, PreconditionError
import regcond_oracles

GAMMA = 0.7071067811865476


def test_lambda_point_masses(table):
    pts = lambda_points(1, 20, table)
    assert [m for m, _ in pts] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    masses = dict(pts)
    # each mass is the float log of the prime root itself, an exact dyadic
    # rational that every route reads at its binary value
    assert all(type(v) is float for v in masses.values())
    assert masses[4] == masses[2] == masses[16] == math.log(2)
    assert masses[9] == masses[3] == math.log(3)
    assert masses[19] == math.log(19)


def test_error_row_single_mass(table):
    row = e_sup(10, 12, Fraction(7, 10), 1, 0, table)
    assert row.e == Fraction(math.log(11))
    assert row.contributing_count == 1
    assert (row.q, row.a) == (1, 0)


def test_error_row_empty_progression(table):
    row = e_sup(100, 101, Fraction(1, 2), 25, 2, table)
    assert row.e == Fraction(1, 20)   # window length over phi(q)
    assert row.interval is None
    assert row.contributing_count == 0
    assert not row.attained
    assert (row.q, row.a) == (25, 2)


def test_e_sup_guards(table):
    with pytest.raises(PreconditionError):
        e_sup(100, 250, Fraction(1, 2), 1, 0, table)
    with pytest.raises(PreconditionError):
        e_sup(100, 150, Fraction(1, 2), 0, 0, table)
    with pytest.raises(PreconditionError):
        e_sup(100, 150, Fraction(1, 2), 4, 2, table)


def test_bv_row_internal_consistency(table):
    cfg = HarnessConfig(gamma=GAMMA, n_grid=(1000,))
    row, = bv_harness(cfg, table)
    assert row["r"] == 99
    assert row["q_cap"] == 3
    assert [(q, a) for q, a, _ in row["terms"]] == [(1, 0), (2, 1), (3, 2)]
    assert row["terms"][0][2] == pytest.approx(108.12480462968259, rel=1e-12)
    assert row["terms"][2][2] == pytest.approx(75.43929235666677, rel=1e-12)
    assert row["lhs"] == pytest.approx(291.68890161603196, rel=1e-12)
    assert row["lhs"] == pytest.approx(math.fsum(t[2] for t in row["terms"]),
                                       rel=1e-12)
    assert row["normalized"] == row["lhs"] * math.log(1000) ** 2 / 1000


def test_bdh_row_internal_consistency(table):
    cfg = HarnessConfig(gamma=GAMMA, n_grid=(1000,), r_cap=8)
    row, = bdh_harness(cfg, table)
    assert set(row) == {"lhs", "n", "normalized", "per_q", "r_cap"}
    assert [q for q, _ in row["per_q"]] == list(range(1, 9))
    assert row["lhs"] == pytest.approx(99216.8268809752, rel=1e-9)
    assert row["lhs"] == pytest.approx(math.fsum(v for _, v in row["per_q"]),
                                       rel=1e-9)
    assert row["per_q"][0][1] == float(e_sup(1000, 2000, GAMMA, 1, 0,
                                             table).e ** 2)
    denom = 1000 * 8 * math.log(1000) * math.log(math.log(1000)) ** 2
    assert row["normalized"] == row["lhs"] / denom


def test_harness_and_config_guards(table):
    with pytest.raises(PreconditionError):
        bdh_harness(HarnessConfig(gamma=GAMMA, n_grid=(1000,), r_cap=2000),
                    table)
    with pytest.raises(PreconditionError):
        HarnessConfig(gamma=GAMMA, n_grid=())
    # a cap that is given must be at least 1; the policies' own caps are
    # never below 1
    for cap in (0, -2):
        with pytest.raises(PreconditionError, match="q_cap must be >= 1"):
            HarnessConfig(gamma=GAMMA, n_grid=(1000,), q_cap=cap)
        with pytest.raises(PreconditionError, match="r_cap must be >= 1"):
            HarnessConfig(gamma=GAMMA, n_grid=(1000,), r_cap=cap)
    assert HarnessConfig(gamma=GAMMA, n_grid=(1000,), q_cap=1, r_cap=1).q_cap == 1


def test_harness_budgets_refuse_before_any_sweep(table, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("window swept before the budget check")

    monkeypatch.setattr(equidist, "_window_points", no_sweep)
    # the default R at N = 10^6 is 5238: about 4e8 point-visits; the
    # affordable first grid point is not swept either
    with pytest.raises(BudgetError) as refused:
        bdh_harness(HarnessConfig(gamma=GAMMA, n_grid=(10**4, 10**6)), table)
    assert refused.value.estimate > equidist.HARNESS_POINT_BUDGET
    with pytest.raises(BudgetError) as refused:
        bv_harness(HarnessConfig(gamma=GAMMA, n_grid=(10**4,), q_cap=10**5),
                   table)
    assert refused.value.estimate > equidist.HARNESS_POINT_BUDGET
    assert "arc checks" not in str(refused.value)   # a harness makes none


def test_liouville_demo_avoidance_bound():
    out = liouville_demo()
    assert out["points_in_arc"] == 0
    assert out["all_progressions_hold"]
    assert out["aggregate_holds"]
    assert len(out["rows"]) == 10   # sum of phi(q) for q <= 5
    # summed over the phi(q) classes of each q <= 5: sum_q 25 / phi(q)
    assert out["sum_bound"] == pytest.approx(81.25)
    assert out["sum_e2"] == pytest.approx(10129.07, rel=1e-3)
    for row in out["rows"]:
        assert row["holds"]
        assert row["e"] ** 2 + 1e-12 >= row["bound_e2"]
        # bound is N^2 / (4 r^2 phi(q)^2) = 25 / phi(q)^2 at the defaults
        assert row["bound_e2"] == pytest.approx(25.0 / euler_phi(row["q"]) ** 2)
    with pytest.raises(PreconditionError):
        liouville_demo(u=2)


def test_liouville_demo_bound_holds_when_phi_exceeds_4r2():
    # r = 1: at q = 5 the class a = 1 has e^2 = 602.4, below N^2 / (4 phi(q))
    # = 625 but above the bound the argument proves, N^2 / (4 phi(q)^2)
    out = liouville_demo(r=1, u=1, n=100, q_cap=5)
    row = next(row for row in out["rows"] if (row["q"], row["a"]) == (5, 1))
    assert row["e"] ** 2 == pytest.approx(602.4, rel=1e-4)
    assert row["bound_e2"] == 156.25
    assert out["all_progressions_hold"] and out["aggregate_holds"]
    assert out["sum_bound"] == 8125.0


def test_liouville_demo_refuses_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("window swept before the budget check")

    monkeypatch.setattr(equidist, "_window_points", no_sweep)
    with pytest.raises(BudgetError) as refused:
        liouville_demo(q_cap=10**6)
    assert refused.value.estimate > equidist.HARNESS_POINT_BUDGET
    # the message says how much of the estimate is the 2N arc checks
    assert str(refused.value).startswith(
        f"the arc sweep needs about {refused.value.estimate} point-visits "
        "(200 of them arc checks), over the budget of")
    # few point-visits, but more rows than the demo budget allows
    with pytest.raises(BudgetError) as refused:
        liouville_demo(q_cap=1500)
    assert refused.value.estimate == 1500 * 1501 // 2 > equidist.DEMO_ROW_BUDGET


def test_regcond_report(sqrt2):
    row, = regcond_report((0, 7), sqrt2, (2000,), 0.25, 2, 0.05)
    assert set(row) == {"arc_route_matches", "lhs12", "lhs15", "n", "norm12",
                        "norm15", "q_top", "y"}
    assert row["q_top"] == 6
    assert row["y"] == pytest.approx(1414.213562373095)
    assert row["arc_route_matches"] == {0: True, 1: True}
    assert row["lhs12"] == pytest.approx(83.50647362942709, rel=1e-9)
    assert row["norm12"] == pytest.approx(3.7755369355530055, rel=1e-9)
    assert row["lhs15"][0] == pytest.approx(231.49538841463684, rel=1e-9)
    assert row["lhs15"][1] == pytest.approx(263.05979743501155, rel=1e-9)
    assert row["norm15"][0] == pytest.approx(10.466486625315387, rel=1e-9)
    assert row["norm15"][1] == pytest.approx(11.893592655851103, rel=1e-9)


@pytest.mark.parametrize("n, expected", [(12_500, 1273.4601292265952),
                                         (10**5, 8406.243120846202),
                                         (4 * 10**5, 30114.675524174312),
                                         (10**6, 70427.28401466485)])
def test_li_difference_is_correctly_rounded(n, expected):
    # mpmath li(2N) - li(N) at 40 digits, rounded to a float
    assert li_difference(n, 2 * n) == expected
    assert li_difference(np.int64(n), float(2 * n)) == expected


def test_li_difference_matches_quadrature():
    # quad is 1 ulp high at [4*10^5, 8*10^5], and up to 8 ulp off on wider
    # windows such as [10, 100]
    integrate = pytest.importorskip("scipy.integrate")
    for lo in (2, 3.5, 10, 100, 12_500, 10**5, 4 * 10**5, 10**6, 10**7):
        for hi in (lo + 1, 2 * lo):
            want = integrate.quad(lambda t: 1 / math.log(t), lo, hi)[0]
            assert abs(li_difference(lo, hi) - want) <= 2 * math.ulp(want)
    assert li_difference(7, 7) == 0.0
    for lo, hi in ((1, 2), (0.5, 2), (3, 2)):
        with pytest.raises(PreconditionError):
            li_difference(lo, hi)


@pytest.mark.parametrize("n_lo, n_hi", [(10**4, 2 * 10**4), (1, 20),
                                        (5000, 5041), (120, 122)])
def test_lambda_points_sieve_only_the_window_and_its_roots(n_lo, n_hi, table,
                                                           monkeypatch):
    # without a table the window [n_lo, n_hi) and the roots up to
    # isqrt(n_hi - 1) are sieved apart, not [2, n_hi) whole
    want = lambda_points(n_lo, n_hi, table)
    asked = []
    primes_in = arith.primes_in

    def recording(lo, hi):
        asked.append((lo, hi))
        return primes_in(lo, hi)

    monkeypatch.setattr(arith, "primes_in", recording)
    assert lambda_points(n_lo, n_hi) == want
    root = math.isqrt(n_hi - 1)
    assert (n_lo, n_hi) in asked
    assert all(n_lo <= lo and hi <= n_hi or hi <= root + 1 for lo, hi in asked)


def _squarefree(top):
    return [q for q in range(1, top + 1) if arith.mobius(q) != 0]


@pytest.mark.parametrize("size, moduli, passes", [
    # squarefree q <= 31 on the 7 071 members of [10^4, 2*10^4): the lcm
    # passes the array's length at 13, 17, 22, 29 and 31
    (7071, _squarefree(31), 6),
    (7071, [1], 1),
    (7071, [1, 1, 2], 1),
    # one modulus above the array's length gets a pass of its own
    (7071, [2, 3, 10**4 + 7, 5], 3),
    (30, [1, 2, 3, 5, 7], 2),
    (0, [1, 2, 3, 10**4 + 7], 4),
])
def test_class_counts_match_per_modulus_bincounts(size, moduli, passes, sqrt2,
                                                  monkeypatch):
    values = beatty.beatty_members(sqrt2, 10**4, 2 * 10**4)[:size]
    assert values.size == size
    bincount = np.bincount
    lengths = []

    def spy(x, minlength=0):
        lengths.append(minlength)
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    got = _class_counts(values, moduli)
    monkeypatch.setattr(np, "bincount", bincount)
    assert len(got) == len(moduli)
    for q, counts in zip(moduli, got):
        want = np.bincount(values % q, minlength=q)
        assert counts.dtype == want.dtype
        assert counts.tolist() == want.tolist()
    assert len(lengths) == passes
    assert all(m <= size for m in lengths if m not in moduli)


def _allowed_shifts(params, lo, hi, eps=0.05):
    gamma = params.gamma_exact
    return [h for h in range(lo, hi)
            if 0 < (-h * gamma) % 1 < 2 * eps * gamma]


@pytest.mark.parametrize("offsets, n_grid, theta", [
    ((0, 7), (2000, 12_500), 0.25),
    # theta = 0.3 at N = 50 000: q <= 25, the moduli split into groups
    ((0, 7), (12_500, 50_000), 0.3),
    ((-17, 0), (2000,), 0.25),
    ("beyond", (2000,), 0.3),
])
def test_regcond_report_equals_the_parent_route(offsets, n_grid, theta, sqrt2):
    if offsets == "beyond":
        # h >= N: n_lo + h >= n_hi, so no n is kept and no prime is tested
        offsets = (0, _allowed_shifts(sqrt2, 2000, 2200)[0])
    rows = regcond_report(offsets, sqrt2, n_grid, theta, 2, 0.05)
    assert rows == regcond_oracles.regcond_report(offsets, sqrt2, n_grid,
                                                  theta, 2, 0.05)
    assert all(row["arc_route_matches"][m] is True
               for row in rows for m in range(len(offsets)))


def test_regcond_cross_check_can_fail(sqrt2, monkeypatch):
    # an arc route that drops one hit of the shifted arc is reported; the
    # offsets' arcs are tested in order, the membership arc first
    arc_mask = beatty.arc_mask
    calls = []

    def drop_one(num, off, den, ns, cut):
        inside = arc_mask(num, off, den, ns, cut)
        calls.append(cut)
        if len(calls) > 1:
            inside[np.flatnonzero(inside)[0]] = False
        return inside

    monkeypatch.setattr(beatty, "arc_mask", drop_one)
    row, = regcond_report((0, 7), sqrt2, (2000,), 0.25, 2, 0.05)
    assert row["arc_route_matches"] == {0: True, 1: False}


def test_regcond_requires_grid_sets(sqrt2):
    with pytest.raises(PreconditionError, match="empty N grid"):
        regcond_report((0, 7), sqrt2, (), 0.25, 2, 0.05)


def _python_window(n_lo, n_hi, gamma):
    """The fields of a window built from lambda_points on Python ints: X by
    exact integer products, an exact stable sort, and X / d correctly
    rounded."""
    pts = lambda_points(n_lo, n_hi)
    (step, _), d = arith.common_denominator(
        [to_fraction(gamma).as_integer_ratio(), (1, 2**53)])
    xs = [step * m % d for m, _ in pts]
    order = sorted(range(len(xs)), key=xs.__getitem__)
    xs = [xs[k] for k in order]
    mass = [pts[k][1] for k in order]
    return {"d": d, "mass_den": 2**53, "xs": xs,
            "n": [pts[k][0] for k in order],
            "xid": list(itertools.accumulate(
                (int(x1 != x0) for x0, x1 in zip(xs, xs[1:])), initial=0))[:len(xs)],
            "x": [x / d for x in xs], "mass": mass,
            "wm": [int(Fraction(lam) * 2**53) for lam in mass]}


@pytest.mark.parametrize("gamma, d", [(0.7071067811865476, 2**53), (20.0, 2**53),
                                      (0.5, 2**53), (1e-3, 2**60),
                                      (3 * 2.0**-63, 2**63), (2.0**-70, 2**70)])
@pytest.mark.parametrize("n", [11, 300, 4094, 25_000])
def test_window_routes_agree_with_python_ints(gamma, d, n):
    # d <= 2^63 a power of two takes the uint64 route, anything else the
    # Python-int one; both give the window built on Python ints (gamma =
    # 20 puts every point at 0, and 0.5 alternates two X, so equal X must
    # keep their n order)
    w = _window_points(n, 2 * n, gamma)
    want = _python_window(n, 2 * n, gamma)
    assert w.d == want["d"] == d
    assert w.xs.dtype == (np.uint64 if d <= 2**63 else object)
    assert {"d": w.d, "mass_den": w.mass_den, "xs": w.xs.tolist(),
            "n": w.n.tolist(), "xid": w.xid.tolist(), "x": w.x.tolist(),
            "mass": w.mass.tolist(), "wm": w.wm.tolist()} == want
    assert [type(v) for v in w.xs.tolist()] == [int] * len(want["xs"])
    assert (w.n.dtype, w.xid.dtype, w.x.dtype, w.mass.dtype, w.wm.dtype) == (
        np.int64, np.int64, np.float64, np.float64, np.int64)


def _fraction_points(n_lo, n_hi, gamma, table):
    """The window points as (n, frac(gamma n), Lambda(n)) in Fraction."""
    g = to_fraction(gamma)
    return [(m, (g * m) % 1, Fraction(lam))
            for m, lam in lambda_points(n_lo, n_hi, table)]


def _window_argmax(values, window):
    """For each start i, the last j in [i, i + window) with the largest
    values[j], by scanning the whole window."""
    out = []
    for i in range(len(values) - window + 1):
        j = i
        for t in range(i + 1, i + window):
            if values[t] >= values[j]:
                j = t
        out.append(j)
    return out


def _fraction_row(pairs, c, q, a):
    """The endpoint sweep evaluated in Fraction arithmetic throughout: the
    reference for the arc kernel in float and in exact mode, which must
    return the same row."""
    masses = {}
    for pos, lam in pairs:
        masses[pos] = masses.get(pos, Fraction(0)) + lam
    if not masses:
        return ErrorRow(q, a, c, 0, None, False)
    xs = sorted(masses)
    ws = [masses[x] for x in xs]
    m_count = len(xs)
    x2 = xs + [x + 1 for x in xs]
    prefix = [Fraction(0)]
    for w in ws + ws:
        prefix.append(prefix[-1] + w)
    g_vals = [prefix[j + 1] - c * x2[j] for j in range(2 * m_count)]
    best_g = _window_argmax(g_vals, m_count)
    best = None
    for i in range(m_count):
        j = best_g[i]
        val = g_vals[j] - (prefix[i] - c * x2[i])
        if best is None or val > best[0]:
            best = (val, "run", i, j)
    u_vals = [c * x2[j] - prefix[j] for j in range(2 * m_count)]
    best_u = _window_argmax(u_vals[1:] + [u_vals[0]], m_count)
    for i in range(m_count):
        j = best_u[i] + 1
        val = u_vals[j] - (c * x2[i] - prefix[i + 1])
        if val > best[0]:
            best = (val, "gap", i, j)
    val, kind, i, j = best
    length = x2[j] - x2[i]
    count = j - i + 1 if kind == "run" else j - i - 1
    arc = beatty.TorusInterval(xs[i] % 1, length) if 0 < length < 1 else None
    return ErrorRow(q, a, val, count, arc, False)


# slopes whose positions coincide (small denominators, so masses merge),
# binary floats, and 40-digit surds with large denominators
SLOPES = st.one_of(
    st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)),
    st.floats(0.001, 20.0),
    st.builds(lambda k, u, v: beatty.sqrt_fraction(k) * Fraction(u, v),
              st.integers(2, 99).filter(lambda k: math.isqrt(k) ** 2 != k),
              st.integers(1, 9), st.integers(1, 9)))


def _error_row(w, q, a, row):
    """An integer row (val, count, left, dx) of _rows_for_modulus as the
    ErrorRow it stands for."""
    val, count, left, dx = row
    arc = (beatty.TorusInterval(Fraction(left, w.d), Fraction(dx, w.d))
           if 0 < dx < w.d else None)
    return ErrorRow(q, a, Fraction(val, w.d * euler_phi(q)), count, arc, False)


def _check_against_the_fraction_route(table, gamma, n, n2, q):
    w = _window_points(n, n2, gamma, table)
    phi, empty, rows = _rows_for_modulus(w, n2 - n, q)
    old = _fraction_points(n, n2, gamma, table)
    assert phi == euler_phi(q)
    c = Fraction(n2 - n, phi)
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        pairs = [(pos, lam) for m, pos, lam in old if m % q == a]
        want = _fraction_row(pairs, c, q, a)
        # a class has its own winner exactly when it holds a point
        assert (a in rows) == bool(pairs)
        assert _error_row(w, q, a, rows.get(a, empty)) == want
        assert e_sup(n, n2, gamma, q, a, table) == want
    assert all(math.gcd(a, q) == 1 for a in rows)
    return phi, empty, rows


# one-point rows; every X equal (gamma = 0); merged equal X with exact ties
# between the two orientations of a half-circle run (gamma = 1/4); an exact
# 40-digit surd; two rows whose float maximum is not the exact winner; and
# a 400-digit denominator, whose integer scores lie past float range
HARD_ROWS = [(Fraction(7, 10), 10, 0.0, 1),
             (0.7071067811865476, 50, 1.0, 24),
             (Fraction(0), 300, 0.5, 4),
             (Fraction(1, 4), 11, 0.2, 1),
             (Fraction(1, 4), 600, 1.0, 6),
             (beatty.sqrt_fraction(2), 700, 1.0, 5),
             (Fraction(11, 14), 251, 0.154, 4),
             (0.9095138640207543, 4094, 0.033, 9),
             (Fraction(1, 3) + Fraction(1, 10**400), 100, 1.0, 3)]


def _with_hard_rows(test):
    for gamma, n, frac, q in HARD_ROWS:
        test = example(gamma=gamma, n=n, frac=frac, q=q)(test)
    return test


@_with_hard_rows
@settings(max_examples=150, deadline=None)
@given(gamma=SLOPES, n=st.integers(2, 700), frac=st.floats(0.0, 1.0),
       q=st.integers(1, 24))
def test_integer_kernel_matches_the_fraction_route(table, gamma, n, frac, q):
    _check_against_the_fraction_route(table, gamma, n,
                                      n + 1 + int(frac * (n - 1)), q)


def _pairs(sets):
    runs_i, runs_j0, runs_j1, gaps_i, gaps_j0, gaps_j1 = sets
    return (len(runs_i) * (len(runs_j0) + len(runs_j1))
            + len(gaps_i) * (len(gaps_j0) + len(gaps_j1)))


def _count_exact_candidates(monkeypatch):
    """Record, per row sent to the exact re-check, its candidate pairs."""
    seen = []
    best = equidist._Exact.best

    def spy(self, start, count, sets):
        seen.append(_pairs(sets))
        return best(self, start, count, sets)

    monkeypatch.setattr(equidist._Exact, "best", spy)
    return seen


@pytest.mark.parametrize("eps", [Fraction(1, 10**30), Fraction(0)])
def test_near_tie_goes_to_the_exact_recheck(table, monkeypatch, eps):
    # the window [11, 14) holds 11 and 13; with gamma = 1/4 + eps they sit
    # at 3/4 + 11 eps and 1/4 + 13 eps, so the run over both is about half
    # the circle either way round, and the two orientations differ by
    # 4 c eps (c = 3), far below float resolution
    seen = _count_exact_candidates(monkeypatch)
    gamma = Fraction(1, 4) + eps
    row = e_sup(11, 14, gamma, 1, 0, table)
    assert seen == [4]
    # the shorter orientation wins; on an exact tie the first start does
    assert row.contributing_count == 2
    assert row.interval == beatty.TorusInterval((13 * gamma) % 1,
                                                Fraction(1, 2) - 2 * eps)
    assert row.e == Fraction(math.log(11)) + Fraction(math.log(13)) \
        - 3 * (Fraction(1, 2) - 2 * eps)
    _check_against_the_fraction_route(table, gamma, 11, 14, 1)


def test_exact_recheck_keeps_the_tie_rules():
    # two unit masses at 0 and 1/2 with c = 2: every run and every gap
    # scores 1, so the rules alone pick the row: runs before gaps, the
    # first start, then the last end (the run over both points)
    window = equidist._Window(4, 1, np.array([0, 2], dtype=np.uint64),
                              np.array([1, 2]), np.array([0, 1]),
                              np.array([0.0, 0.5]), np.array([1.0, 1.0]),
                              np.array([1, 1]))
    row = _rows_for_modulus(window, 2, 1)[2][0]
    assert row == (4, 2, 0, 2)
    assert _error_row(window, 1, 0, row) == _fraction_row(
        [(Fraction(0), 1), (Fraction(1, 2), 1)], Fraction(2), 1, 0)


def test_lone_point_tie_goes_to_the_run():
    # one point of mass 2 with c = 2: the run over it and the gap of the
    # whole circle both score 2, and _Exact.best's tie rule picks the run
    window = equidist._Window(4, 1, np.array([1], dtype=np.uint64),
                              np.array([3]), np.array([0]), np.array([0.25]),
                              np.array([2.0]), np.array([2]))
    row = _rows_for_modulus(window, 2, 1)[2][0]
    assert row == (8, 1, 1, 0)
    assert _error_row(window, 1, 0, row) == _fraction_row(
        [(Fraction(1, 4), 2)], Fraction(2), 1, 0)


def _merged_row(w, q, b):
    """Class b mod q of the window as merged points: (xs, wm, size), the
    distinct X over d ascending, their summed mass numerators over
    mass_den, and the number of points before merging."""
    xs, wm, size = [], [], 0
    for x, m, mass in zip(w.xs.tolist(), w.n.tolist(), w.wm.tolist()):
        if m % q != b:
            continue
        size += 1
        if xs and xs[-1] == x:
            wm[-1] += mass
        else:
            xs.append(x)
            wm.append(mass)
    return xs, wm, size


def _exact_planes(xs, wm, d, mass_den, span, phi):
    """The six planes of _scores for one row, from the run and gap
    definitions alone, on Python ints over d*phi: points at xs / d with
    masses wm / mass_den, c = span / phi, and every partner tried.

    A run from start i to end j (j >= n for an end on the second lap, n
    the row's length) scores its mass less c times its arc; a gap scores
    c times its arc less the mass strictly inside.  Plane 0 is the best
    run per start, 1 and 2 the best run per end on the first and second
    lap, 3-5 the same for gaps; None stands for no partner (-inf).
    """
    n = len(xs)
    pos = [span * x for x in xs]
    mass = [m * (d * phi // mass_den) for m in wm]
    circle = span * d
    planes = [[None] * n for _ in range(6)]

    def keep(plane, k, v):
        if planes[plane][k] is None or v > planes[plane][k]:
            planes[plane][k] = v

    for i in range(n):
        inside = 0
        for t in range(n):
            # the run covers points i..i+t, the gap lies from i to i+t+1
            j = (i + t) % n
            inside += mass[j]
            arc = pos[j] - pos[i] + (circle if i + t >= n else 0)
            run = inside - arc
            keep(0, i, run)
            keep(1 if i + t < n else 2, j, run)
            j = (i + t + 1) % n
            arc = pos[j] - pos[i] + (circle if i + t + 1 >= n else 0)
            gap = arc - (inside - mass[i])
            keep(3, i, gap)
            keep(4 if i + t + 1 < n else 5, j, gap)
    return planes


@pytest.mark.parametrize("gamma, n, q", [(GAMMA, 10_000, 1), (GAMMA, 10_000, 6),
                                         (beatty.sqrt_fraction(2), 700, 5),
                                         (Fraction(1, 4), 600, 6)])
def test_delta_bounds_the_float_scores(table, monkeypatch, gamma, n, q):
    # one _rows_for_modulus call scores every class in float, then sends
    # each nonempty class's filtered candidates to _Exact.best, in row order
    calls, picked = [], []
    scores, best = equidist._scores, equidist._Exact.best

    def spy_scores(prefix, cx, lap):
        calls.append(scores(prefix, cx, lap))
        return calls[-1]

    def spy_best(self, start, count, sets):
        picked.append(sets)
        return best(self, start, count, sets)

    monkeypatch.setattr(equidist, "_scores", spy_scores)
    monkeypatch.setattr(equidist._Exact, "best", spy_best)
    w = _window_points(n, 2 * n, gamma, table)
    _rows_for_modulus(w, n, q)
    [floats] = calls
    phi = euler_phi(q)
    c = Fraction(n, phi)
    rows = [row for row in (_merged_row(w, q, b) for b in range(q)
                            if math.gcd(b, q) == 1) if row[2]]
    assert len(rows) == floats.shape[0] == len(picked)
    for r, (xs, wm, size) in enumerate(rows):
        exact = _exact_planes(xs, wm, w.d, w.mass_den, n, phi)
        width = len(xs)
        total = Fraction(sum(wm), w.mass_den)
        # the a-priori error of _rows_for_modulus's docstring; its delta
        # is about twice this
        bound = (Fraction(303, 100) * size + 17) * Fraction(1, 2**53) * (total + c)
        # the float planes hold -inf exactly where no partner exists, and
        # past a row's end
        assert np.all(floats[r, :, width:] == -np.inf)
        for (k, j), x in np.ndenumerate(floats[r, :, :width]):
            if exact[k][j] is None:
                assert x == -np.inf
            else:
                assert abs(Fraction(x) - Fraction(exact[k][j], w.d * phi)) <= bound
        # each exact maximiser passed the float floor, so the filtered
        # candidates hold every exact maximiser
        top = max(v for plane in exact for v in plane if v is not None)
        for plane, have in zip(exact, picked[r]):
            assert {j for j, v in enumerate(plane) if v == top} <= set(have)
