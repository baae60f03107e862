"""Shared fixtures: a mid-size factor table, the two workhorse slopes and
a counter of the calls into the fractions module."""
import fractions
import sys

import pytest

from beattysieve.arith import FactorTable
from beattysieve.beatty import BeattyParams


@pytest.fixture(scope="session")
def table():
    return FactorTable(200_000)


@pytest.fixture(scope="session")
def sqrt2():
    # alpha = sqrt(2), beta = 0
    return BeattyParams.quadratic(0, 1, 2)


@pytest.fixture(scope="session")
def golden():
    # alpha = (1 + sqrt(5)) / 2
    return BeattyParams.quadratic(1, 1, 5, 2)


@pytest.fixture
def fraction_calls():
    """fraction_calls(fn) runs fn() and returns how many Python-level calls
    it made into the fractions module: constructors, operators and
    properties alike (on Python 3.12 arithmetic builds its results without
    Fraction.__new__, so counting constructions would miss it)."""
    def count(fn):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(previous)
        return calls
    return count
