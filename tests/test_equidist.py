"""Progression error suprema and the distribution harnesses."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beattysieve import beatty, equidist
from beattysieve.arith import euler_phi
from beattysieve.beatty import _to_fraction, beatty_members
from beattysieve.equidist import (ErrorRow, HarnessConfig, _rows_for_modulus,
                                  _sliding_max, _window_points, bdh_harness,
                                  bv_harness, e_sup, lambda_points,
                                  li_difference, liouville_demo,
                                  regcond_report)
from beattysieve.errors import BudgetError, PreconditionError

GAMMA = 0.7071067811865476


def test_lambda_point_masses(table):
    pts = lambda_points(1, 20, table)
    assert [m for m, _ in pts] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    masses = dict(pts)
    assert all(isinstance(v, Fraction) for v in masses.values())
    # prime powers carry the mass of their prime root
    assert masses[4] == masses[2] == masses[16]
    assert masses[9] == masses[3]
    assert float(masses[2]) == pytest.approx(math.log(2))


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


def test_liouville_demo_avoidance_bound(table):
    out = liouville_demo(table=table)
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
    with pytest.raises(PreconditionError):
        liouville_demo(delta=Fraction(1, 2))


def test_liouville_demo_bound_holds_when_phi_exceeds_4r2(table):
    # r = 1: at q = 5 the class a = 1 has e^2 = 602.4, below N^2 / (4 phi(q))
    # = 625 but above the bound the argument proves, N^2 / (4 phi(q)^2)
    out = liouville_demo(r=1, u=1, n=100, q_cap=5, table=table)
    row = next(row for row in out["rows"] if (row["q"], row["a"]) == (5, 1))
    assert row["e"] ** 2 == pytest.approx(602.4, rel=1e-4)
    assert row["bound_e2"] == 156.25
    assert out["all_progressions_hold"] and out["aggregate_holds"]
    assert out["sum_bound"] == 8125.0


def test_liouville_demo_refuses_before_any_sweep(table, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("window swept before the budget check")

    monkeypatch.setattr(equidist, "_window_points", no_sweep)
    with pytest.raises(BudgetError) as refused:
        liouville_demo(q_cap=10**6, table=table)
    assert refused.value.estimate > equidist.HARNESS_POINT_BUDGET
    # few point-visits, but more rows than the demo budget allows
    with pytest.raises(BudgetError) as refused:
        liouville_demo(q_cap=1500, table=table)
    assert refused.value.estimate == 1500 * 1501 // 2 > equidist.DEMO_ROW_BUDGET


def test_regcond_report(sqrt2):
    cfg = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,), k=2,
                        theta=0.25, params=sqrt2)
    a_sets = {2000: beatty_members(sqrt2, 2000, 4000)}
    row, = regcond_report(a_sets, (0, 7), cfg)
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


def test_regcond_report_takes_gamma_from_params(sqrt2):
    # Y = gamma N and the shift arcs use the same gamma, that of params
    a_sets = {2000: beatty_members(sqrt2, 2000, 4000)}
    want = regcond_report(a_sets, (0, 7), HarnessConfig(
        gamma=sqrt2.gamma_exact, n_grid=(2000,), params=sqrt2))
    got = regcond_report(a_sets, (0, 7), HarnessConfig(
        gamma=0.5, n_grid=(2000,), params=sqrt2))
    assert got == want


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


def test_regcond_requires_grid_sets(sqrt2):
    cfg = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,), params=sqrt2)
    with pytest.raises(PreconditionError):
        regcond_report({}, (0, 7), cfg)
    # the shift arcs need the Beatty pair, not just its slope
    no_params = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,))
    with pytest.raises(PreconditionError):
        regcond_report({2000: beatty_members(sqrt2, 2000, 4000)}, (0, 7),
                       no_params)


def test_regcond_refuses_members_out_of_order(sqrt2):
    cfg = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,), params=sqrt2)
    members = beatty_members(sqrt2, 2000, 4000)
    regcond_report({2000: members}, (0, 7), cfg)
    for bad in (members[::-1], np.sort(np.concatenate([members, members[:1]])),
                np.roll(members, 1)):
        with pytest.raises(PreconditionError, match="strictly ascending"):
            regcond_report({2000: bad}, (0, 7), cfg)


def _fraction_points(n_lo, n_hi, gamma, table):
    """The window points as (n, frac(gamma n), Lambda(n)) in Fraction."""
    g = _to_fraction(gamma)
    return [(m, (g * m) % 1, lam) for m, lam in lambda_points(n_lo, n_hi, table)]


def _fraction_row(pairs, c, q, a):
    """The endpoint sweep evaluated in Fraction arithmetic throughout: the
    reference for the integer kernel, which must return the same row."""
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
    best_g = _sliding_max(g_vals, m_count)
    best = None
    for i in range(m_count):
        j = best_g[i]
        val = g_vals[j] - (prefix[i] - c * x2[i])
        if best is None or val > best[0]:
            best = (val, "run", i, j)
    u_vals = [c * x2[j] - prefix[j] for j in range(2 * m_count)]
    best_u = _sliding_max(u_vals[1:] + [u_vals[0]], m_count)
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


@settings(max_examples=150, deadline=None)
@given(gamma=SLOPES, n=st.integers(2, 700), frac=st.floats(0.0, 1.0),
       q=st.integers(1, 24))
def test_integer_kernel_matches_the_fraction_route(table, gamma, n, frac, q):
    n2 = n + 1 + int(frac * (n - 1))
    d, points = _window_points(n, n2, gamma, table)
    rows = _rows_for_modulus(d, points, n2 - n, q)
    old = _fraction_points(n, n2, gamma, table)
    c = Fraction(n2 - n, euler_phi(q))
    assert sorted(rows) == [a for a in range(q) if math.gcd(a, q) == 1]
    for a, row in rows.items():
        pairs = [(pos, lam) for m, pos, lam in old if m % q == a]
        assert row == _fraction_row(pairs, c, q, a)
        assert e_sup(n, n2, gamma, q, a, table) == row
