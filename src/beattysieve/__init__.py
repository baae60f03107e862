"""Desk-scale workbench for gaps between primes in Beatty sequences.

Submodules:
    arith       factor tables, multiplicative functions, prime sieves
    beatty      Beatty sequences as circle rotations, torus arcs
    dioph       continued fractions and rational approximation quality
    tuples      admissible tuples and their Beatty-window translates
    maynard     multidimensional sieve weights and window sums
    variational simplex Rayleigh quotients and certified M_k bounds
    buchstab    chain-count identity, exponent regions, region integrals
    chars       Dirichlet character groups, Gauss sums, bilinear sums
    equidist    progression error suprema and scaling harnesses
    cli         command line frontend (`beattysieve ...`)
"""
from . import (arith, beatty, buchstab, chars, dioph, equidist, maynard,
               tuples, variational)
from .beatty import (BeattyParams, TorusInterval, beatty_enumerate,
                     beatty_members, torus_member)
from .errors import (BudgetError, CapacityError, ImpossibleInputError,
                     PreconditionError)

__version__ = "0.1.0"

__all__ = [
    "arith", "beatty", "buchstab", "chars", "dioph", "equidist", "maynard",
    "tuples", "variational",
    "BeattyParams", "TorusInterval", "beatty_enumerate", "beatty_members",
    "torus_member",
    "BudgetError", "CapacityError", "ImpossibleInputError", "PreconditionError",
    "__version__",
]
