"""Progression error suprema and the distribution harnesses."""
import math
from fractions import Fraction

import pytest

from beattysieve.arith import euler_phi
from beattysieve.beatty import beatty_enumerate
from beattysieve.equidist import (HarnessConfig, bdh_harness, bv_harness,
                                  e_sup, lambda_points, liouville_demo,
                                  regcond_report)
from beattysieve.errors import PreconditionError

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


def test_liouville_demo_avoidance_bound(table):
    out = liouville_demo(table=table)
    assert out["points_in_arc"] == 0
    assert out["all_progressions_hold"]
    assert out["aggregate_holds"]
    assert len(out["rows"]) == 10   # sum of phi(q) for q <= 5
    assert out["sum_bound"] == pytest.approx(81.25)
    assert out["sum_e2"] == pytest.approx(10129.07, rel=1e-3)
    for row in out["rows"]:
        assert row["holds"]
        assert row["e"] ** 2 + 1e-12 >= row["bound_e2"]
        # bound is N^2 / (4 r^2 phi(q)) = 25 / phi(q) at the defaults
        assert row["bound_e2"] == pytest.approx(25.0 / euler_phi(row["q"]))
    with pytest.raises(PreconditionError):
        liouville_demo(u=2)
    with pytest.raises(PreconditionError):
        liouville_demo(delta=Fraction(1, 2))


def test_regcond_report(sqrt2):
    cfg = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,), k=2,
                        theta=0.25, params=sqrt2)
    a_sets = {2000: set(beatty_enumerate(sqrt2, 2000, 4000))}
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


def test_regcond_requires_grid_sets(sqrt2):
    cfg = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,), params=sqrt2)
    with pytest.raises(PreconditionError):
        regcond_report({}, (0, 7), cfg)
    # the shift arcs need the Beatty pair, not just its slope
    no_params = HarnessConfig(gamma=sqrt2.gamma_exact, n_grid=(2000,))
    with pytest.raises(PreconditionError):
        regcond_report({2000: set()}, (0, 7), no_params)
