"""Admissible tuples and their Beatty translates."""
import random
from fractions import Fraction

import pytest

from beattysieve.errors import (BudgetError, ImpossibleInputError,
                                PreconditionError)
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


def test_translate_scans_one_period_of_a_rational_gamma():
    # h * 2/3 mod 1 takes the values 2/3, 1/3, 0 and repeats: the scan stops
    # after 3 candidates instead of running its whole budget
    with pytest.raises(BudgetError, match="within 3 candidates"):
        translate_tuple(10, 2, Fraction(2, 3), Fraction(1, 100))


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
