"""Continued fractions and modulus selection."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from beattysieve import dioph
from beattysieve.dioph import (approx_for_modulus, convergents,
                               last_convergent)
from beattysieve.errors import PreconditionError

GAMMA = 1 / math.sqrt(2)
# sqrt(2)/2 to 40 digits, an exact Fraction with a big denominator
SURD = Fraction(7071067811865475244008443621048490392848, 10**40)


def _first(gamma, depth):
    """The first `depth` rows of the lazy expansion."""
    return list(itertools.islice(convergents(gamma), depth))


def test_convergents_of_one_over_sqrt2():
    rows = [(c.numerator, c.denominator, c.flag) for c in _first(GAMMA, 6)]
    assert rows == [(0, 1, None), (1, 1, None), (2, 3, None), (5, 7, None),
                    (12, 17, None), (29, 41, None)]


def test_convergents_flag_exact_and_near_rational_stops():
    exact = _first(Fraction(1, 3), 6)
    assert [(c.numerator, c.denominator, c.flag) for c in exact] == [
        (0, 1, None), (1, 3, "exact")]
    near = _first(Fraction(1, 2) + Fraction(1, 10**15), 6)
    assert len(near) == 3
    assert (near[-1].numerator, near[-1].denominator) == (1, 2)
    assert near[-1].flag == "near-rational"


def test_golden_ratio_denominators_are_fibonacci():
    g = (math.sqrt(5) - 1) / 2
    assert [c.denominator for c in _first(g, 10)] == [
        1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_convergents_straddle_the_target():
    rng = random.Random(5)
    for _ in range(25):
        g = Fraction(rng.randrange(1, 997), 997)
        rows = _first(g, 12)
        denoms = [c.denominator for c in rows]
        assert denoms == sorted(denoms)
        for prev, cur in zip(rows, rows[1:]):
            a = Fraction(prev.numerator, prev.denominator) - g
            b = Fraction(cur.numerator, cur.denominator) - g
            assert a * b <= 0
        assert all(c.quality >= 0 for c in rows)


def test_approx_for_modulus_denominator_policy():
    a16 = approx_for_modulus(GAMMA, 16)
    assert (a16.numerator, a16.denominator) == (5, 7)
    assert float(a16.quality) == pytest.approx(0.007178933099166824)
    assert approx_for_modulus(GAMMA, 200).denominator == 41
    assert approx_for_modulus(GAMMA, 450).denominator == 41
    # n = 2 allows only denominator 1, so the numerator rounds gamma
    assert (approx_for_modulus(GAMMA, 2).numerator,
            approx_for_modulus(GAMMA, 2).denominator) == (1, 1)
    tiny = approx_for_modulus(Fraction(1, 1000), 16)
    assert (tiny.numerator, tiny.denominator, tiny.flag) == (0, 1, None)
    with pytest.raises(PreconditionError):
        approx_for_modulus(GAMMA, 1)


def test_last_convergent_is_the_last_row_under_the_cap():
    for gamma in (GAMMA, SURD, Fraction(1, 1000), Fraction(5, 7)):
        rows = list(convergents(gamma))
        for cap in (1, 2, 3, 40, 41, 1000, 10**6, 10**12):
            assert last_convergent(gamma, cap) \
                == [c for c in rows if c.denominator <= cap][-1]
    # 0/1 and 1/1 share the denominator 1; the later row wins
    assert last_convergent(GAMMA, 1).numerator == 1
    with pytest.raises(PreconditionError):
        next(convergents(Fraction(3, 2)))


def test_approx_for_modulus_reads_the_expansion_lazily(fraction_calls,
                                                       monkeypatch):
    # Euclid runs on integers: a few fractions calls per convergent read,
    # and no convergent is read past the first denominator over the cap
    cap = 31622   # floor((10^6)^(3/4))
    rows = list(convergents(SURD))
    read = next(i for i, c in enumerate(rows) if c.denominator > cap) + 1
    assert read < len(rows)
    drawn = []

    def counted(gamma):
        for row in convergents(gamma):
            drawn.append(row)
            yield row

    monkeypatch.setattr(dioph, "convergents", counted)
    calls = fraction_calls(lambda: approx_for_modulus(SURD, 10**6))
    assert drawn == rows[:read]
    assert calls <= 5 * read
