"""Names of the weight sequences w_k a binomial sum can carry.

Only harmonic numbers and gaps are tables (engine.PrimeContext.weight_table);
the engine walks Lucas-family sums in Z[w]; oracle.py holds exact definitions.
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

# kind -> (u or v, (a, b)); None takes (a, b) from the WeightSpec
LUCAS_FAMILY = {LUCAS_U: ("u", None), LUCAS_V: ("v", None),
                PELL: ("u", (2, -1)), COMPANION_PELL: ("v", (2, -1)),
                CUBIC_CHAR: ("u", (-1, 1)), THREE_INDICATOR: ("v", (-1, 1))}
