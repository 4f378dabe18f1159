"""Names of the weight sequences w_k a binomial sum can carry.

The sequences themselves are tables on engine.PrimeContext (weight_table,
binom_units, apery), and oracle.py holds their exact definitions.
"""

CONST1 = "const1"
LUCAS_U = "lucas_u"
LUCAS_V = "lucas_v"
PELL = "pell"
COMPANION_PELL = "companion_pell"
CUBIC_CHAR = "cubic_char"
THREE_INDICATOR = "three_indicator"
HARMONIC = "harmonic"
HARMONIC_GAP = "harmonic_gap"

WEIGHT_KINDS = (
    CONST1,
    LUCAS_U,
    LUCAS_V,
    PELL,
    COMPANION_PELL,
    CUBIC_CHAR,
    THREE_INDICATOR,
    HARMONIC,
    HARMONIC_GAP,
)
