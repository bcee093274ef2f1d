"""Numeric constants.

The Euler constant is stored as a 50-digit literal and everything derived
from it (e^gamma in particular) is computed from that literal, so no
special-function routine is involved.
"""

import math

# Euler-Mascheroni constant, 50 digits.
GAMMA_LITERAL = "0.57721566490153286060651209008240243104215933593992"

EULER_GAMMA = float(GAMMA_LITERAL)

# e^gamma = 1.7810724179901979852...; exp() of the literal is correct to 1 ulp.
EXP_GAMMA = math.exp(EULER_GAMMA)

# Truncated-series window factor of the unconditional approximation for
# zeta derivatives: t in [N, 6.28*N] (any constant below 2*pi works).
LEMMA_WINDOW_FACTOR = 6.28

# The three bound constants `moments.bound_prediction` evaluates; the CLI
# parser lists them without importing the numerical modules.
BOUND_KINDS = ("lower", "rh-upper", "conjectural-asymptotic")
