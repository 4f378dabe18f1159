"""Verification toolkit for central-binomial congruences over prime moduli.

The package has three layers: residue arithmetic mod prime powers
(``arith``, ``quadform``), a truncated summation engine with an exact
rational oracle (``engine``, ``oracle``, and the weight names in ``seq``),
and a catalogue of named congruence checks with a parallel suite runner
(``registry``, ``cli``).

Importing the package loads what every run needs and no more.  The oracle
is imported when ``supercon.exact_sum`` is first read, and the process pool
only when a run starts one.
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


def __getattr__(name: str):
    # PEP 562: no run path reads the oracle, so it is imported on first use
    if name == "exact_sum":
        from .oracle import exact_sum

        globals()["exact_sum"] = exact_sum
        return exact_sum
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
