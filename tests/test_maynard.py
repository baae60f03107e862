"""Sieve context assembly, weight inversion, window sums."""
import math
import random
import warnings
from fractions import Fraction

import pytest

from beattysieve.arith import euler_phi, factorize, mobius
from beattysieve.beatty import beatty_enumerate
from beattysieve.errors import CapacityError, PreconditionError
from beattysieve.maynard import (aux_sums, build_context, enumerate_support,
                                 ggpy_compare, invert_lambda,
                                 lambda_lambda_s1, lcm_identity_check,
                                 main_terms, positivity_combination,
                                 s1_s2_direct, s1_window_float, weights,
                                 window_inner_sums, y_m_report, y_m_weights)
from beattysieve.variational import SimplexPolynomial


def test_context_moduli_assembly():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=5)
    assert ctx.w1 == 30 and ctx.w2 == 30
    ctx_q = build_context(2, 10**4, 0.5, 0.05, d0=5, q0=7)
    assert ctx_q.w1 == 210 and ctx_q.w2 == 30
    assert ctx_q.q0 == 7


def test_context_validation():
    with pytest.raises(PreconditionError):
        build_context(0, 10**4, 0.5, 0.05)
    with pytest.raises(PreconditionError):
        build_context(2, 50, 0.5, 0.05)
    with pytest.raises(PreconditionError):
        build_context(2, 10**4, 1.5, 0.05)
    with pytest.raises(PreconditionError):
        build_context(2, 10**4, 0.5, 0.3)
    with pytest.raises(PreconditionError):
        build_context(2, 10**4, 0.5, 0.05, nonsense=3)
    with pytest.raises(PreconditionError):
        build_context(2, 10**4, 0.5, 0.05,
                      f=SimplexPolynomial.constant(3, 1))
    with pytest.raises(CapacityError):
        build_context(2, 10**4, 0.5, 0.05, d0=97)


def test_hand_family_k1_r4():
    ctx = build_context(1, 100, 0.5, 0.1, d0=2, r_value=4, offsets=(0,))
    fam = weights(ctx, (0,))
    assert fam.y == {(1,): 1, (3,): 1}
    assert fam.lam == {(1,): Fraction(3, 2), (3,): Fraction(-3, 2)}
    assert fam.nu0 == 1
    assert fam.w(5) == Fraction(9, 4)
    assert fam.w(9) == 0
    assert fam.w(4) == 0   # fails the residue gate


def test_support_enumeration_constraints():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    support = enumerate_support(ctx)
    assert support[0] == (1, 1)
    assert support == sorted(support)
    for d in support:
        assert len(d) == 2
        assert d[0] * d[1] <= 20
        assert math.gcd(d[0], d[1]) == 1
        for di in d:
            assert math.gcd(di, ctx.w1) == 1
            assert mobius(di) != 0


def test_support_capacity_guard():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=10**8,
                        offsets=(0, 2))
    with pytest.raises(CapacityError):
        enumerate_support(ctx)


def test_trivial_support_warns():
    ctx = build_context(3, 10**4, 0.5, 0.05, d0=3, r_value=4, offsets=(0, 2, 6))
    with pytest.warns(UserWarning):
        fam = weights(ctx, (0, 2, 6))
    assert set(fam.lam) == {(1, 1, 1)}


def test_weights_rejects_mismatched_offsets():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=10, offsets=(0, 2))
    with pytest.raises(PreconditionError):
        weights(ctx, (0, 2, 6))
    with pytest.raises(PreconditionError):
        weights(ctx, (0, 1))   # covers every residue class mod 2
    with pytest.raises(PreconditionError):
        weights(ctx, (0, 6))   # difference carries 3 > D0 with q0 = 1


def test_lambda_inversion_roundtrips_exactly():
    for k, offsets, d0, r in ((1, (0,), 2, 4), (2, (0, 2), 2, 30),
                              (3, (0, 2, 6), 3, 50)):
        ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r,
                            offsets=offsets)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fam = weights(ctx, offsets)
        res = invert_lambda(ctx, fam.lam)
        assert res.consistent
        assert res.max_residual == 0
        assert res.y == fam.y


def test_inversion_rejects_off_support_entries():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    with pytest.raises(PreconditionError):
        invert_lambda(ctx, {(4, 1): Fraction(1)})


def test_two_s1_routes_agree_exactly(sqrt2):
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    fam = weights(ctx, (0, 6))
    a_set = set(beatty_enumerate(sqrt2, 10**4, 2 * 10**4))
    s1, _ = s1_s2_direct(ctx, (0, 6), a_set, family=fam)
    ll = lambda_lambda_s1(ctx, (0, 6), a_set, 10**4, 2 * 10**4, family=fam)
    assert s1 == ll
    assert float(s1) == pytest.approx(2579.237912808642)


def test_direct_s2_with_unit_density_reproduces_s1():
    ctx = build_context(1, 100, 0.5, 0.1, d0=2, r_value=4, offsets=(0,))
    fam = weights(ctx, (0,))
    a_set = set(range(100, 140))
    s1, s2 = s1_s2_direct(ctx, (0,), a_set, rho_fn=lambda g, n: 1, gs=(1, 2),
                          family=fam)
    assert s1 == Fraction(63, 2)
    assert s2[(1, 0)] == s1 and s2[(2, 0)] == s1
    with pytest.raises(PreconditionError):
        s1_s2_direct(ctx, (0,), {50}, family=fam)


def test_window_inner_sums_match_pointwise_sums():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    fam = weights(ctx, (0, 6))
    arr = window_inner_sums(fam, 10**4, 10**4 + 500)
    for n in range(10**4, 10**4 + 500, 37):
        assert arr[n - 10**4] == pytest.approx(float(fam.inner_sum(n)))
    with pytest.raises(PreconditionError):
        window_inner_sums(fam, 200, 100)


def test_float_window_sum_tracks_exact_weights(sqrt2):
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=3, r_value=20, offsets=(0, 6))
    fam = weights(ctx, (0, 6))
    a_set = set(beatty_enumerate(sqrt2, 10**4, 10**4 + 2000))
    got = s1_window_float(fam, a_set, 10**4, 10**4 + 2000)
    exact = float(sum((fam.w(n) for n in a_set), Fraction(0)))
    assert got == pytest.approx(exact, rel=1e-9)


def test_main_terms_track_the_observed_window_sum(sqrt2):
    n = 10**4
    ctx = build_context(2, n, 0.99, 0.005, d0=2, offsets=(0, 2))
    fam = weights(ctx, (0, 2))
    a_set = set(beatty_enumerate(sqrt2, n, 2 * n))
    s1 = s1_window_float(fam, a_set, n, 2 * n)
    y_scalar = float(sqrt2.gamma_exact * n)
    report = main_terms(ctx, y_scalar, observed_s1=s1)
    assert set(report) == {"i_value", "j_values", "ratio_s1", "ratio_s2",
                           "s1_pred", "s2_pred"}
    assert report["i_value"] == pytest.approx(0.5)
    assert report["j_values"] == pytest.approx((1 / 3, 1 / 3))
    assert report["ratio_s1"] == pytest.approx(1.752250307405533, rel=1e-9)
    empty = main_terms(ctx, 0.0)
    assert empty["s1_pred"] == 0.0
    assert empty["ratio_s1"] is None
    assert empty["s2_pred"] == {}


def test_positivity_combination_hand_values():
    s2 = {(1, 0): 5.0, (2, 0): 3.0, (1, 1): 4.0, (2, 1): 2.0}
    assert positivity_combination(10.0, s2, 1, 2, 2, 2) == pytest.approx(-6.0)
    assert positivity_combination(0.0, s2, 2, 2, 1, 2) == pytest.approx(14.0)


def test_truncated_divisor_sum_comparison():
    pinned = {
        2: (1.0, 0.6931471805597633, 0.4426950408893422),
        100: (5.910544146635515, 4.605170185986883, 0.2834583539650211),
        1000: (8.240045664918354, 6.907755278980323, 0.19286878763526408),
    }
    rels = []
    for z, (lhs_pin, main_pin, rel_pin) in pinned.items():
        lhs, main, rel = ggpy_compare(lambda p: 1.0, lambda t: 1.0, z, 1.0)
        assert lhs == pytest.approx(lhs_pin, rel=1e-9)
        assert main == pytest.approx(main_pin, rel=1e-9)
        assert rel == pytest.approx(rel_pin, rel=1e-9)
        rels.append(rel)
    # relative error shrinks as z grows; recorded at these z, not extrapolated
    assert rels == sorted(rels, reverse=True)
    with pytest.raises(PreconditionError):
        ggpy_compare(lambda p: 1.0, lambda t: 1.0, 1, 1.0)
    with pytest.raises(PreconditionError):
        ggpy_compare(lambda p: 1.0, lambda t: 1.0, 10, 0.0)
    with pytest.raises(PreconditionError):
        ggpy_compare(lambda p: float(p), lambda t: 1.0, 10, 1.0)


def test_lcm_identity_on_random_squarefree_pairs():
    rng = random.Random(53)
    checked = 0
    while checked < 200:
        d = rng.randrange(1, 3000)
        e = rng.randrange(1, 3000)
        if mobius(d) == 0 or mobius(e) == 0:
            continue
        assert lcm_identity_check(d, e)
        checked += 1
    with pytest.raises(PreconditionError):
        lcm_identity_check(4, 3)


def test_auxiliary_sums():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=5, r_value=100, offsets=(0, 2))
    out = aux_sums(ctx, h_cut=10, lcm_limit=30)
    assert out["lcm_identity_ok"]
    assert out["phi_w1_ratio"] == pytest.approx(4 / 15)
    assert out["singular"] == pytest.approx(out["phi_w1_ratio"], rel=1e-9)
    assert isinstance(out["t1"], Fraction)
    shallow = aux_sums(ctx, h_cut=5, lcm_limit=30)
    assert out["t2"] <= shallow["t2"]   # deeper tail cut leaves less mass


def test_lambda_magnitudes_scale_like_log_r_to_the_k():
    worst = 0.0
    for k, offsets, d0 in ((1, (0,), 2), (2, (0, 2), 2), (3, (0, 2, 6), 3)):
        for r in (4, 10, 30, 100):
            ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r,
                                offsets=offsets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fam = weights(ctx, offsets)
            top = max(abs(float(v)) for v in fam.lam.values())
            worst = max(worst, top / math.log(r) ** k)
    assert worst == pytest.approx(1.0820212806667227, rel=1e-9)
    assert worst <= 1.1


def test_y_m_report_rows():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=10, offsets=(0, 2))
    fam = weights(ctx, (0, 2))
    rows = y_m_report(ctx, fam, 1)
    assert len(rows) == 4
    assert [row["r"] for row in rows] == [(1, 1), (3, 1), (5, 1), (7, 1)]
    assert rows[0]["defined"] == Fraction(227, 144)
    assert rows[0]["main"] == Fraction(23, 12)
    for row in rows:
        assert row["envelope"] == pytest.approx(math.log(10))
        assert row["difference"] == pytest.approx(float(row["defined"] -
                                                        row["main"]))
        assert abs(row["difference"]) <= row["envelope"]


# Quadratic definitions of the weight transforms, kept as the oracle for the
# divisor-lattice transform in maynard: every (d, r) pair of the support is
# scanned and the component-wise divisibility tested directly.

def _divides(d, r):
    return all(ri % di == 0 for di, ri in zip(d, r))


def _mu_prod(r):
    return math.prod(mobius(x) for x in r)


def _phi_prod(r):
    return math.prod(euler_phi(x) for x in r)


def _oracle_lambda(support, y):
    lam = {}
    for d in support:
        total = sum((y[r] / _phi_prod(r) for r in support if _divides(d, r)),
                    Fraction(0))
        lam[d] = _mu_prod(d) * math.prod(d) * total
    return lam


def _oracle_y(support, lam):
    y = {}
    for r in support:
        total = sum((lam[d] / math.prod(d) for d in support
                     if _divides(r, d)), Fraction(0))
        y[r] = _mu_prod(r) * _phi_prod(r) * total
    return y


def _oracle_y_m(support, lam, m):
    out = {}
    for r in support:
        if r[m] != 1:
            continue
        total = sum((ld / _phi_prod(d) for d, ld in lam.items()
                     if d[m] == 1 and _divides(r, d)), Fraction(0))
        shifted = math.prod(p - 2 for x in r for p, _ in factorize(x))
        out[r] = _mu_prod(r) * shifted * total
    return out


def _oracle_main(y, r, m):
    return sum((y_val / euler_phi(rr[m]) for rr, y_val in y.items()
                if all(rr[i] == r[i] for i in range(len(r)) if i != m)),
               Fraction(0))


def _slack_plus_t0_squared(k):
    slack = (1,) + (0,) * k
    t0_sq = (0, 2) + (0,) * (k - 1)
    return SimplexPolynomial.from_terms(k, {slack: 1, t0_sq: 3})


@pytest.mark.parametrize("k, offsets, d0, r_value, q0, q1, slack", [
    (1, (0,), 2, 300, 1, 1, False),
    (2, (0, 2), 2, 300, 1, 1, True),
    (2, (0, 10), 3, 120, 5, 7, False),
    (3, (0, 2, 6), 3, 150, 1, 1, True),
    (3, (0, 4, 6), 3, 60, 5, 7, True),
])
def test_transforms_match_quadratic_definitions(k, offsets, d0, r_value,
                                                 q0, q1, slack):
    f = _slack_plus_t0_squared(k) if slack else None
    ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r_value,
                        offsets=offsets, q0=q0, q1=q1, f=f)
    support = enumerate_support(ctx)
    assert len(support) > 10
    fam = weights(ctx, offsets)
    assert list(fam.lam) == support
    assert fam.lam == _oracle_lambda(support, fam.y)

    res = invert_lambda(ctx, fam.lam)
    assert res.y == _oracle_y(support, fam.lam) == fam.y
    # a lambda off the image of y -> lambda: the recovered y is still the
    # quadratic one
    bent = dict(fam.lam)
    bent[support[-1]] += Fraction(1, 7)
    assert invert_lambda(ctx, bent).y == _oracle_y(support, bent)

    for m in range(k):
        got = y_m_weights(ctx, fam, m)
        expected = _oracle_y_m(support, fam.lam, m)
        assert list(got) == list(expected) and got == expected
        rows = y_m_report(ctx, fam, m)
        assert [row["r"] for row in rows] == list(expected)
        for row in rows:
            assert row["main"] == _oracle_main(fam.y, row["r"], m)
