"""Acceptance gates, one test per shipped guarantee.

Each test pins the tolerance it promises; wall-clock budgets are asserted
only where the guarantee includes one.  Decay trends are recorded by the
harnesses and checked here through the shipped trend flag, never as a
hard bound on any single column.
"""
import json
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from beattysieve import cli
from beattysieve.arith import FactorTable, euler_phi, mobius
from beattysieve.beatty import (BeattyParams, beatty_enumerate,
                                pigeonhole_shift, torus_member)
from beattysieve.buchstab import decomposition_check, region_integrals
from beattysieve.chars import char_table, gauss_sum, split_partition_check
from beattysieve.equidist import (HarnessConfig, bdh_harness, bv_harness,
                                  e_sup, liouville_demo)
from beattysieve.maynard import (build_context, invert_lambda,
                                 lambda_lambda_s1, lcm_identity_check,
                                 s1_s2_direct, weights)
from beattysieve.tuples import is_admissible, translate_tuple
from beattysieve.variational import (forms, mk_lower_bound, rayleigh_quotient,
                                     symmetric_basis)
from char_oracles import character_values


@pytest.fixture(scope="module")
def big_table():
    return FactorTable(2_000_000)


def test_criterion_1_region_integrals_within_budget():
    start = time.perf_counter()
    out = region_integrals()
    elapsed = time.perf_counter() - start
    assert out["I1"] <= 0.03925889
    assert out["I1"] >= 0.03925889 - 1e-4
    assert out["I2"] <= 0.0566295
    assert out["I2"] >= 0.0566295 - 1e-4
    assert 1.0 - out["I1"] - out["I2"] >= 0.90411
    assert out["quadrature_error"] < 1e-6
    assert elapsed < 60.0


def test_criterion_2_chain_identity_window(big_table):
    start = time.perf_counter()
    violations = decomposition_check(10**5, 2 * 10**5, big_table)
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_3_variational_bounds():
    assert mk_lower_bound(1, 1)[0] == pytest.approx(1.0, abs=1e-9)
    pair = forms(symmetric_basis(2, 1)[1])
    assert rayleigh_quotient(pair, (Fraction(0), Fraction(1))) == Fraction(6, 5)
    bound, cert = mk_lower_bound(5, 3)
    assert bound > 2.0
    assert bound == pytest.approx(2.0027471939620005, rel=1e-12)
    # re-derive the quotient from the certificate, in exact arithmetic
    labels, elements = symmetric_basis(5, 3)
    keep = [elements[labels.index(lab)] for lab in cert.labels]
    requoted = rayleigh_quotient(forms(keep), cert.coefficients)
    assert float(requoted) == pytest.approx(bound, abs=1e-9)


def test_criterion_4_weight_transform_identities(sqrt2):
    # lambda -> y inversion is exact for every k <= 3, R <= 50 shape
    for k, offsets, d0 in ((1, (0,), 2), (2, (0, 2), 2), (3, (0, 2, 6), 3)):
        for r in (4, 10, 30, 50):
            ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r,
                                offsets=offsets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fam = weights(ctx, offsets)
            res = invert_lambda(ctx, fam.lam)
            assert res.consistent and res.max_residual == 0
            assert res.y == fam.y

    # the direct S1 and the lambda-lambda double sum agree exactly
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    fam = weights(ctx, (0, 6))
    rng = random.Random(41)
    window_sets = [set(beatty_enumerate(sqrt2, 10**4, 2 * 10**4))]
    window_sets += [set(rng.sample(range(10**4, 2 * 10**4), 400))
                    for _ in range(19)]
    for a_set in window_sets:
        s1, _ = s1_s2_direct(ctx, (0, 6), a_set, family=fam)
        assert s1 == lambda_lambda_s1(ctx, (0, 6), a_set, 10**4, 2 * 10**4,
                                      family=fam)

    # lcm product identity, exactly, on 10^4 random squarefree pairs
    rng = random.Random(53)
    checked = 0
    while checked < 10**4:
        d = rng.randrange(1, 3000)
        e = rng.randrange(1, 3000)
        if mobius(d) == 0 or mobius(e) == 0:
            continue
        assert lcm_identity_check(d, e)
        checked += 1


def _prime_power_root(m: int):
    """p when m = p^j for a prime p, else None."""
    mm = m
    for d in range(2, math.isqrt(m) + 1):
        if mm % d == 0:
            while mm % d == 0:
                mm //= d
            return d if mm == 1 else None
    return m


def _arc_error_oracle(n, n2, q, a, gamma):
    """Quadratic-time exact sweep over all candidate arcs, for [n, n2)."""
    agg = {}
    for m in range(n, n2):
        if m % q != a % q:
            continue
        p = _prime_power_root(m)
        if p is None:
            continue
        pos = (Fraction(gamma) * m) % 1
        agg[pos] = agg.get(pos, Fraction(0)) + Fraction(math.log(p))
    c = Fraction(n2 - n, euler_phi(q))
    if not agg:
        return c
    xs = sorted(agg)
    ws = [agg[x] for x in xs]
    count = len(xs)
    x2 = xs + [x + 1 for x in xs]
    w2 = ws + ws
    best = Fraction(0)
    for i in range(count):
        cum = Fraction(0)
        for j in range(i, i + count):
            cum += w2[j]
            best = max(best, cum - c * (x2[j] - x2[i]))
        inside = Fraction(0)
        for j in range(i + 1, i + count + 1):
            best = max(best, c * (x2[j] - x2[i]) - inside)
            if j < i + count:
                inside += w2[j]
    return best


def test_criterion_5_progression_error_oracle(big_table):
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(100, 900)
        n2 = n + rng.randrange(40, min(n, 1100))
        q = rng.randrange(1, 30)
        a = rng.randrange(q) if q > 1 else 0
        while math.gcd(a, q) != 1:
            a = rng.randrange(q)
        gamma = Fraction(rng.randrange(1, 997), 997)
        assert e_sup(n, n2, gamma, q, a, big_table).e \
            == _arc_error_oracle(n, n2, q, a, gamma)
    demo = liouville_demo(table=big_table)
    assert demo["all_progressions_hold"]
    assert demo["aggregate_holds"]


def test_criterion_6_character_sums():
    for q in range(1, 51):
        root_q = math.sqrt(q)
        for chi in char_table(q).characters:
            if not chi.is_primitive:
                continue
            for n in range(q):
                mag = abs(gauss_sum(chi, n))
                assert mag <= root_q + 1e-9
                if math.gcd(n, q) == 1:
                    assert mag == pytest.approx(root_q, abs=1e-9)
    for q in range(1, 201):
        t = char_table(q)
        v = np.array([character_values(chi) for chi in t.characters])
        gram = v @ v.conj().T
        assert np.max(np.abs(gram - t.phi * np.eye(t.phi))) < 1e-9
    assert split_partition_check(100)


def test_criterion_7_torus_and_tuple_geometry(sqrt2, golden):
    pi_half = BeattyParams.make(Fraction(math.pi) / 2)
    for params in (sqrt2, golden, pi_half):
        members = set(beatty_enumerate(params, 1, 10**5 + 1))
        for n in range(1, 10**5 + 1):
            assert torus_member(params, n) == (n in members)

    rng = random.Random(29)
    gamma = sqrt2.gamma_exact
    eps = Fraction(1, 8)
    for _ in range(20):
        k = rng.randrange(1, 5)
        l = rng.randrange(max(k, 2), 30)
        res = translate_tuple(l, k, gamma, eps)
        assert is_admissible(res.tuple_.offsets).admissible
        for h in res.tuple_.offsets:
            assert 0 < (-h * gamma) % 1 < 2 * eps * gamma

    rng = random.Random(17)
    for _ in range(1000):
        count = rng.randrange(1, 40)
        pts = [Fraction(rng.randrange(0, 997), 997) for _ in range(count)]
        length = Fraction(rng.randrange(1, 96), 100)
        _, hits = pigeonhole_shift(pts, length)
        assert len(hits) >= math.ceil(count * length)


def test_criterion_8_constellation_pipeline(big_table, sqrt2, capsys):
    rc = cli.main(["find", "--t", "2", "--lo", "2", "--hi", "30"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["primes"] == [5, 7]

    start = time.perf_counter()
    rc = cli.main(["find", "--t", "2", "--lo", "1000000", "--hi", "2000000"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["primes"] == [1000037, 1000039]
    for p in payload["primes"]:
        assert big_table.is_prime(p)
        assert torus_member(sqrt2, p)
    assert elapsed < 60.0


def test_criterion_9_distribution_harnesses(big_table, tmp_path, capsys):
    grid = (10**4, 10**5, 10**6)
    bv_cfg = HarnessConfig(gamma=0.7071067811865476, n_grid=grid)
    bv_rows = bv_harness(bv_cfg, big_table)
    bv_first = [row["normalized"] for row in bv_rows]
    bv_second = [row["normalized"] for row in bv_harness(bv_cfg, big_table)]
    assert bv_first == bv_second
    bdh_cfg = HarnessConfig(gamma=0.7071067811865476, n_grid=grid, r_cap=8)
    bdh_rows = bdh_harness(bdh_cfg, big_table)
    bdh_first = [row["normalized"] for row in bdh_rows]
    bdh_second = [row["normalized"] for row in bdh_harness(bdh_cfg, big_table)]
    assert bdh_first == bdh_second
    # the rows of an exact per-point sweep, which the float-filtered
    # sweep must reproduce exactly
    assert [(row["r"], row["q_cap"]) for row in bv_rows] == [
        (577, 6), (3363, 10), (19601, 15)]
    assert [row["lhs"] for row in bv_rows] == [
        1456.302973582616, 9918.789306510136, 37723.01993204099]
    assert bv_first == [12.353871974274794, 13.14710257060486,
                        7.200129891572174]
    assert [row["lhs"] for row in bdh_rows] == [
        870762.6733500849, 15959799.0854878, 126967632.75965334]
    assert bdh_first == [0.23971782713065948, 0.29022685122773667,
                         0.16661553157671427]

    out = tmp_path / "trend.json"
    rc = cli.main(["report", "regcond-trend", "--output", str(out)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][-1]["norm12"] < payload["rows"][0]["norm12"]
    manifest = json.loads((tmp_path / "trend.json.manifest.json").read_text())
    assert manifest["flags"] == {"regcond_trend_down": True}
