"""Sieve context assembly, weight inversion, window sums."""
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from beattysieve import maynard
from beattysieve.arith import euler_phi, mobius
from beattysieve.beatty import beatty_enumerate, beatty_members
from beattysieve.errors import CapacityError, PreconditionError
from beattysieve.maynard import (WeightFamily, build_context,
                                 enumerate_support, invert_lambda,
                                 lambda_lambda_s1, lcm_identity_check,
                                 main_terms, s1_s2_direct, s1_window_float,
                                 weights)
from beattysieve.variational import SimplexPolynomial
from maynard_oracles import per_tuple_y, ungated_s1, window_inner_sums
from simplex_oracles import integral, product


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
    with pytest.raises(TypeError, match="nonsense"):
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


# the certify benchmark's two round trips (R within 2 of 300 and 150), a
# W1 with the primes of q0 q1 = 35 at R = 10^4, and a fractional R
@pytest.mark.parametrize("k, offsets, d0, r_value, q0, q1", [
    (2, (0, 2), 2, 298, 1, 1), (2, (0, 16), 2, 302, 1, 1),
    (3, (0, 2, 6), 3, 148, 1, 1), (3, (0, 4, 12), 3, 152, 1, 1),
    (2, (0, 2), 3, 10**4, 5, 7), (1, (0,), 2, 2.5, 1, 1)])
def test_support_values_are_squarefree_and_coprime_to_w1(k, offsets, d0,
                                                         r_value, q0, q1):
    ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r_value,
                        offsets=offsets, q0=q0, q1=q1)
    assert maynard._support_values(ctx) == [
        m for m in range(1, int(r_value) + 1)
        if mobius(m) != 0 and (m == 1 or math.gcd(m, ctx.w1) == 1)]


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
        s1_window_float(fam, np.array([150]), 200, 100)


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


@pytest.mark.parametrize("d0, offsets, r_value", [
    (2, (0, 2), 60), (3, (0, 6), 40), (5, (0, 2, 6), 30)])
def test_gated_window_sum_equals_the_ungated_oracle(sqrt2, d0, offsets,
                                                     r_value):
    # W2 = 2, 6, 30: S1 built on the gated class alone is the same float
    ctx = build_context(len(offsets), 10**4, 0.5, 0.05, d0=d0,
                        r_value=r_value, offsets=offsets)
    fam = weights(ctx, offsets)
    assert fam.w2 == {2: 2, 3: 6, 5: 30}[d0]
    # members reach past the window on both sides; then unsorted with
    # repeats, then none in the gated class when nu0 is odd
    members = beatty_members(sqrt2, 10**4 - 40, 10**4 + 3000)
    given_sets = (members, np.concatenate([members[::-1], members[::7]]),
                  members[members % 2 == 0])
    empty_class = positive = 0
    for n_lo in range(10**4, 10**4 + fam.w2 + 1):   # every n_lo mod W2
        for n_hi in (n_lo + 1, n_lo + fam.w2 - 1, n_lo + 2000, n_lo + 2003):
            if not n_lo < n_hi:
                continue
            if all((n - fam.nu0) % fam.w2 for n in range(n_lo, n_hi)):
                empty_class += 1
            for given in given_sets:
                got = s1_window_float(fam, given, n_lo, n_hi)
                assert got == ungated_s1(fam, given, n_lo, n_hi)
                positive += got > 0
    assert empty_class > 0 and positive > 0


def test_gated_window_sum_refuses_inconsistent_congruences():
    # n = 0 mod 2 and n + 1 = 0 mod 2 have no common solution
    fam = WeightFamily((0, 1), 1, 1, {}, {(2, 2): Fraction(1)})
    with pytest.raises(PreconditionError):
        s1_window_float(fam, np.arange(100, 110), 100, 110)


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
    # a lambda no profile sample gives: y -> lambda is triangular with
    # nonzero diagonal on the support, so it is still in the image, the
    # recovered y is the quadratic one and the rebuild matches exactly
    bent = dict(fam.lam)
    bent[support[-1]] += Fraction(1, 7)
    bent_res = invert_lambda(ctx, bent)
    assert bent_res.y == _oracle_y(support, bent)
    assert bent_res.consistent is True
    assert bent_res.max_residual == 0


def test_inversion_coerces_mixed_lambda_values():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=100,
                        offsets=(0, 2))
    support = enumerate_support(ctx)
    values = (3, 0.375, Fraction(5, 21), -2, -1.25, Fraction(-4, 9))
    lam = {d: values[i % len(values)]
           for i, d in enumerate(support) if i % 4 != 3}
    assert len(lam) < len(support)
    res = invert_lambda(ctx, lam)
    full = {d: Fraction(lam.get(d, 0)) for d in support}
    assert res.y == _oracle_y(support, full)
    assert list(res.y) == support
    assert all(type(v) is Fraction for v in res.y.values())
    assert res.consistent is True and res.max_residual == 0


def test_inversion_reads_numpy_integers_exactly():
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=300,
                        offsets=(0, 2))
    support = enumerate_support(ctx)
    lam = {d: 3**20 * (i + 1) for i, d in enumerate(support)}
    want = invert_lambda(ctx, lam)
    got = invert_lambda(ctx, {d: np.int64(v) for d, v in lam.items()})
    assert got == want
    assert want.y == _oracle_y(support, {d: Fraction(v) for d, v in lam.items()})
    assert want.consistent is True


def test_weights_skip_vanishing_profile_values():
    # 1 - P1 vanishes where r_1 r_2 = R
    f = SimplexPolynomial.from_terms(2, {(1, 0): 1})
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=105,
                        offsets=(0, 2), f=f)
    support = enumerate_support(ctx)
    fam = weights(ctx, (0, 2))
    assert fam.y[(105, 1)] == fam.y[(1, 105)] == 0
    assert fam.lam == _oracle_lambda(support, fam.y)
    res = invert_lambda(ctx, fam.lam)
    assert res.y == fam.y and res.max_residual == 0


@pytest.mark.parametrize("r_value, edge", [(165, (3, 55)), (231, (3, 77)),
                                           (255, (3, 85))])
def test_weights_keep_boundary_tuples_inside_the_simplex(r_value, edge):
    # r_1 r_2 = R exactly, but log r_1 / log R + log r_2 / log R rounds to
    # 1 + 2^-52; the support is checked exactly, so every tuple samples F
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=r_value,
                        offsets=(0, 2))
    fam = weights(ctx, (0, 2))
    assert fam.y[edge] == fam.y[edge[::-1]] == 1
    assert set(fam.y.values()) == {1}
    # a profile that vanishes on the face gives 0 there
    slack = SimplexPolynomial.from_terms(2, {(1, 0): 1})
    ctx = build_context(2, 10**4, 0.5, 0.05, d0=2, r_value=r_value,
                        offsets=(0, 2), f=slack)
    face = weights(ctx, (0, 2)).y
    assert face[edge] == face[edge[::-1]] == 0 < face[(1, 1)]


@pytest.mark.parametrize("k, terms", [
    (2, {(0, 0): 1}), (2, {(1, 0): 1}), (1, {(1, 0): 1, (0, 1): 3}),
    (2, {(1, 0): 1, (0, 1): 3}), (3, {(1, 0): 1, (0, 1): 3})])
def test_main_terms_integral_matches_the_oracle(k, terms):
    f = SimplexPolynomial.from_terms(k, terms)
    ctx = build_context(k, 10**4, 0.5, 0.05, d0=3, r_value=150,
                        offsets=(0, 2, 6)[:k], f=f)
    assert main_terms(ctx, 1.0)["i_value"] == float(integral(product(f, f)))


@pytest.mark.parametrize("k, offsets, d0, r_value, slack", [
    (2, (0, 2), 2, 300, True), (2, (0, 6), 3, 120, True),
    (3, (0, 2, 6), 3, 150, True), (3, (0, 4, 6), 3, 60, False),
    (2, (0, 2), 2, 165, True), (2, (0, 2), 2, 231, False),
    (2, (0, 2), 2, 255, True), (2, (0, 2), 2, 255, False),
])
def test_weights_equal_the_per_tuple_oracle(k, offsets, d0, r_value, slack):
    # F once per sorted entry tuple gives the y and lambda of F once per
    # tuple; R = 165, 231, 255 hold the tuples the over-1 clamp moves
    f = _slack_plus_3_p2(k) if slack else None
    ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r_value,
                        offsets=offsets, f=f)
    support = enumerate_support(ctx)
    fam = weights(ctx, offsets)
    want = per_tuple_y(ctx, support)
    assert fam.y == want
    assert list(fam.y) == support
    assert all(type(v) is Fraction for v in fam.y.values())
    assert fam.lam == _oracle_lambda(support, want)
    if slack:
        assert len(set(fam.y.values())) > 10


@pytest.mark.parametrize("k, offsets, d0, r_value", [
    (2, (0, 2), 2, 300), (3, (0, 2, 6), 3, 150), (2, (0, 2), 2, 255)])
def test_weights_evaluate_the_profile_once_per_entry_multiset(monkeypatch, k,
                                                              offsets, d0,
                                                              r_value):
    batches = []
    evaluate_many = SimplexPolynomial.evaluate_many

    def spy(self, points):
        points = [tuple(p) for p in points]
        batches.append(points)
        return evaluate_many(self, points)

    monkeypatch.setattr(SimplexPolynomial, "evaluate_many", spy)
    ctx = build_context(k, 10**4, 0.5, 0.05, d0=d0, r_value=r_value,
                        offsets=offsets, f=_slack_plus_3_p2(k))
    support = enumerate_support(ctx)
    weights(ctx, offsets)
    assert len(batches) == 1
    multisets = {tuple(sorted(r)) for r in support}
    assert len(batches[0]) == len(multisets) < len(support)
    assert len({tuple(sorted(p)) for p in batches[0]}) == len(multisets)
