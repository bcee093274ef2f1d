"""Computational toolkit around the Dickman function, smooth-number sums,
divisor resonators, and derivatives of zeta / Dirichlet L-functions on the
1-line."""

from .constants import EULER_GAMMA, EXP_GAMMA
from .dickman import (
    DickmanTable,
    build_rho_table,
    laplace_lhs,
    laplace_rhs,
    load_table,
    log_rho_asymptotic_main,
    rho,
    save_table,
)
from .dirichlet import (
    CharacterTable,
    LSeriesValue,
    MaxCharResult,
    ResonanceQuotient,
    build_character_table,
    l_derivative_truncated,
    max_over_characters,
    resonance_quotient,
)
from .errors import (
    OutOfDomainError,
    OutOfRegimeError,
    PrecisionUnreachableError,
    PrincipalCharacterError,
    ResourceLimitError,
    TailNotCertifiedError,
)
from .moments import (
    MomentValue,
    bound_prediction,
    complete_bell,
    y_exact,
    y_quadrature,
)
from .resonator import (
    BookkeepingResult,
    ResonatorSpec,
    log_power_sum,
    make_spec,
    proof_bookkeeping,
    ratio_direct,
    ratio_factorized,
    spec_from_T,
)
from .smooth import (
    Character,
    ProfileRecord,
    SmoothCountResult,
    Trivial,
    TwistSpec,
    Unimodular,
    approximation_error_profile,
    full_twisted_sum,
    psi_count,
    smooth_twisted_sum,
    spf_sieve,
)
from .zeta import (
    EvalResult,
    ScanResult,
    scan_max,
    zeta_derivative,
    zeta_derivative_reference,
    zeta_derivative_truncated,
)

__version__ = "0.1.0"
