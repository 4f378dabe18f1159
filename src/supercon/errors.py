"""Exception taxonomy for the toolkit.

Every error carries enough context in its message to identify the offending
input.  An error raised while a check evaluates is reported as ERROR; a SKIP
comes only from the check's hypothesis on p, never from an error.
"""


class SuperconError(Exception):
    """Base class for all toolkit errors."""


class NotCoprime(SuperconError):
    """Argument must be coprime to p."""


class NonResidue(SuperconError):
    """Quadratic non-residue where a square root was required."""


class ZeroInput(SuperconError):
    """Zero (mod p) where a unit or nonzero value was required."""


class PrecisionExhausted(SuperconError):
    """A residue mod p^e was asked for digits beyond e."""


class NegativeValuation(SuperconError):
    """Value has a pole at p; cannot be reduced to a residue."""


class NotRepresentable(SuperconError):
    """p has no representation x^2 + d*y^2."""


class RamifiedPrime(SuperconError):
    """p divides d; the form degenerates."""


class ConventionUnachievable(SuperconError):
    """Requested sign/parity convention cannot be met by any sign choice."""


class DenominatorDivisible(SuperconError):
    """Summation denominator m is divisible by p."""


class IndexOutOfRange(SuperconError):
    """Sequence index outside the range where the recurrence is invertible."""


class UnknownCheckId(SuperconError):
    """Check id not present in the registry."""


class PrimeTooLarge(SuperconError):
    """p is above the bound the O(p) engine can hold tables for."""


class OverrideRefused(SuperconError):
    """Modulus-power override for a check whose evaluator does not read its power."""
