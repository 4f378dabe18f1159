"""Verification toolkit for central-binomial congruences over prime moduli.

The package has three layers: residue arithmetic mod prime powers
(``arith``, ``quadform``), a truncated summation engine with an exact
rational oracle (``engine``, ``oracle``, and the weight names in ``seq``),
and a catalogue of named congruence checks with a parallel suite runner
(``registry``, ``cli``).
"""

from .arith import (
    OddPrime,
    ResidueMod,
    fermat_quotient,
    legendre_symbol,
    reduce,
    sqrt_mod,
)
from .engine import (
    FULL,
    HALF,
    PrimeContext,
    SumSpec,
    WeightSpec,
    binomial_sum,
    legendre_poly_eval,
)
from .errors import SuperconError, UnknownCheckId
from .oracle import exact_sum
from .quadform import AlignedRep, QuadRep, normalize, represent
from .registry import (
    CheckReport,
    SuiteResult,
    check_ids,
    checks,
    get_check,
    run_check,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedRep",
    "CheckReport",
    "FULL",
    "HALF",
    "OddPrime",
    "PrimeContext",
    "QuadRep",
    "ResidueMod",
    "SuiteResult",
    "SumSpec",
    "SuperconError",
    "UnknownCheckId",
    "WeightSpec",
    "binomial_sum",
    "check_ids",
    "checks",
    "exact_sum",
    "fermat_quotient",
    "get_check",
    "legendre_poly_eval",
    "legendre_symbol",
    "normalize",
    "reduce",
    "represent",
    "run_check",
    "run_suite",
    "sqrt_mod",
    "__version__",
]
