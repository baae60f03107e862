"""Admissible tuples and their Beatty translates."""
import random
from fractions import Fraction

import pytest

from beattysieve import tuples
from beattysieve.beatty import pigeonhole_shift
from beattysieve.errors import ImpossibleInputError, PreconditionError
from beattysieve.tuples import (AdmissibleTuple, choose_nu0, divcond_check,
                                is_admissible, translate_tuple)


def test_admissibility_verdicts():
    report = is_admissible((0, 2, 6))
    assert report.admissible
    assert report.witnesses == {2: 1, 3: 1}
    assert report.violating_prime is None
    bad = is_admissible((0, 2, 4))
    assert not bad.admissible
    assert bad.violating_prime == 3
    assert is_admissible((0,)).admissible
    with pytest.raises(PreconditionError):
        is_admissible((0, 2, 2))


def test_admissible_tuple_construction():
    tup = AdmissibleTuple.from_offsets((0, 2, 6))
    assert tup.k == 3
    assert tup.offsets[-1] - tup.offsets[0] == 6
    with pytest.raises(PreconditionError):
        AdmissibleTuple.from_offsets((0, 2, 4))


def test_translate_pinned_instance(sqrt2):
    res = translate_tuple(25, 2, sqrt2.gamma_exact, Fraction(1, 4))
    assert res.tuple_.offsets == (38, 86)
    assert res.shift == 7
    assert res.achieved_k == 2
    assert res.requested_k == 2
    assert res.complete
    assert float(res.window_length) == pytest.approx(0.35355339059327373)


def test_translate_accepts_float_gamma():
    res = translate_tuple(25, 2, 1 / 2**0.5, Fraction(1, 4))
    assert res.tuple_.offsets == (38, 86)
    assert res.shift == 7


def test_translate_outputs_live_in_the_shift_window(sqrt2):
    rng = random.Random(29)
    gamma = sqrt2.gamma_exact
    eps = Fraction(1, 8)
    seen_complete = 0
    for _ in range(20):
        k = rng.randrange(1, 5)
        l = rng.randrange(max(k, 2), 30)
        res = translate_tuple(l, k, gamma, eps)
        offsets = res.tuple_.offsets
        assert is_admissible(offsets).admissible
        for h in offsets:
            t = (-h * gamma) % 1
            assert 0 < t < 2 * eps * gamma
        seen_complete += res.complete
    assert seen_complete > 0


def test_translate_preconditions(sqrt2):
    with pytest.raises(PreconditionError):
        translate_tuple(3, 4, sqrt2.gamma_exact, Fraction(1, 4))
    with pytest.raises(PreconditionError):
        translate_tuple(10, 2, sqrt2.gamma_exact, Fraction(3, 2))


def test_translate_refuses_when_no_shift_exists():
    # h * 2/3 mod 1 takes only the values 2/3, 1/3 and 0, and none lies in
    # the target window of length 1/150: the descent proves that no shift exists
    with pytest.raises(ImpossibleInputError, match="no shift h"):
        translate_tuple(10, 2, Fraction(2, 3), Fraction(1, 100))


def _least_shift_by_scan(gamma, eta, window):
    """The least h >= 1 with 0 < (h*gamma - (eta - window)) mod 1 < window,
    tried one h at a time over a full period of h*gamma mod 1, den(gamma)."""
    lo = (eta - window) % 1
    return next((h for h in range(1, gamma.denominator + 1)
                 if 0 < (h * gamma - lo) % 1 < window), None)


def test_translate_shift_matches_a_scan_on_rational_gamma():
    rng = random.Random(36)
    seen = {True: 0, False: 0}
    for _ in range(300):
        gamma = Fraction(rng.randint(1, 3000), rng.randint(1, 3000))
        eps = Fraction(rng.randint(1, 40), rng.randint(1, 400))
        if not 0 < eps * gamma < 1:
            continue
        l = rng.randrange(2, 30)
        window = eps * gamma
        primes = tuples._first_primes_above(l, l)
        eta, _ = pigeonhole_shift([(-gamma * p) % 1 for p in primes], window)
        expected = _least_shift_by_scan(gamma, eta, window)
        seen[expected is None] += 1
        if expected is None:
            with pytest.raises(ImpossibleInputError):
                translate_tuple(l, 1, gamma, eps)
        else:
            res = translate_tuple(l, 1, gamma, eps)
            assert (res.eta, res.shift) == (eta, expected)
    assert min(seen.values()) > 0


def test_divisibility_condition_check():
    assert divcond_check((0, 6), 1, 5) == (True, [])
    ok, offenders = divcond_check((0, 14), 1, 5)
    assert not ok
    assert offenders == [(7, 0, 14)]
    assert divcond_check((0, 14), 7, 5) == (True, [])


def test_choose_nu0():
    assert choose_nu0((0, 2, 6), 6) == 5
    assert choose_nu0((0,), 2) == 1
    with pytest.raises(ImpossibleInputError):
        choose_nu0((0, 1), 2)
