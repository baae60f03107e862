"""Sieve context assembly, weight inversion, window sums."""
import math
import random
import warnings
from fractions import Fraction

import pytest

from beattysieve.arith import euler_phi, mobius
from beattysieve.beatty import beatty_enumerate, beatty_members
from beattysieve.errors import CapacityError, PreconditionError
from beattysieve.maynard import (build_context, enumerate_support,
                                 invert_lambda, lambda_lambda_s1,
                                 lcm_identity_check, main_terms, s1_s2_direct,
                                 s1_window_float, weights, window_inner_sums)
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
    members = beatty_members(sqrt2, 10**4, 10**4 + 2000)
    got = s1_window_float(fam, members, 10**4, 10**4 + 2000)
    exact = float(sum((fam.w(n) for n in members.tolist()), Fraction(0)))
    assert got == pytest.approx(exact, rel=1e-9)
    # members outside the window are ignored
    wider = beatty_members(sqrt2, 10**4 - 50, 10**4 + 2050)
    assert s1_window_float(fam, wider, 10**4, 10**4 + 2000) == got


def test_main_terms_track_the_observed_window_sum(sqrt2):
    n = 10**4
    ctx = build_context(2, n, 0.99, 0.005, d0=2, offsets=(0, 2))
    fam = weights(ctx, (0, 2))
    s1 = s1_window_float(fam, beatty_members(sqrt2, n, 2 * n), n, 2 * n)
    y_scalar = float(sqrt2.gamma_exact * n)
    report = main_terms(ctx, y_scalar, observed_s1=s1)
    assert set(report) == {"i_value", "ratio_s1", "s1_pred"}
    assert report["i_value"] == pytest.approx(0.5)
    assert report["ratio_s1"] == pytest.approx(1.752250307405533, rel=1e-9)
    empty = main_terms(ctx, 0.0)
    assert empty["s1_pred"] == 0.0
    assert empty["ratio_s1"] is None


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


def _slack_plus_3_p2(k):
    """(1 - P1) + 3 P2, so y varies with the tuple beyond its product."""
    return SimplexPolynomial.from_terms(k, {(1, 0): 1, (0, 1): 3})


@pytest.mark.parametrize("k, offsets, d0, r_value, q0, q1, slack", [
    (1, (0,), 2, 300, 1, 1, False),
    (2, (0, 2), 2, 300, 1, 1, True),
    (2, (0, 10), 3, 120, 5, 7, False),
    (3, (0, 2, 6), 3, 150, 1, 1, True),
    (3, (0, 4, 6), 3, 60, 5, 7, True),
])
def test_transforms_match_quadratic_definitions(k, offsets, d0, r_value,
                                                 q0, q1, slack):
    f = _slack_plus_3_p2(k) if slack else None
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
