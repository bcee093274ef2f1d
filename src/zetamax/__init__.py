"""Computational toolkit around the Dickman function, smooth-number sums,
divisor resonators, and derivatives of zeta / Dirichlet L-functions on the
1-line.

The package namespace is lazy: `import zetamax` loads no submodule, and
`zetamax.psi_count` (or `from zetamax import psi_count`) imports
`zetamax.smooth` on first use.  A name is looked up in its submodule on
every access, never cached here, so rebinding the submodule's attribute
rebinds the package-level name too.  This keeps the start of a CLI call down
to the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("EULER_GAMMA", "EXP_GAMMA"),
    "dickman": (
        "DickmanTable", "build_rho_table", "laplace_lhs", "laplace_rhs", "load_table",
        "log_rho_asymptotic_main", "rho", "save_table",
    ),
    "dirichlet": (
        "CharacterTable", "LSeriesValue", "MaxCharResult", "ResonanceQuotient",
        "build_character_table", "l_derivative_truncated", "max_over_characters",
        "resonance_quotient",
    ),
    "errors": (
        "OutOfDomainError", "OutOfRegimeError", "PrecisionUnreachableError",
        "PrincipalCharacterError", "ResourceLimitError", "TailNotCertifiedError",
    ),
    "moments": ("MomentValue", "bound_prediction", "complete_bell", "y_exact", "y_quadrature"),
    "resonator": (
        "BookkeepingResult", "ResonatorSpec", "log_power_sum", "make_spec",
        "proof_bookkeeping", "ratio_direct", "ratio_factorized", "spec_from_T",
    ),
    "smooth": (
        "Character", "ProfileRecord", "SmoothCountResult", "Trivial", "TwistSpec",
        "Unimodular", "approximation_error_profile", "full_twisted_sum", "psi_count",
        "smooth_twisted_sum", "spf_sieve",
    ),
    "zeta": (
        "EvalResult", "ScanResult", "scan_max", "zeta_derivative",
        "zeta_derivative_reference", "zeta_derivative_truncated",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# every submodule that `import zetamax` used to load, reachable as an attribute
_SUBMODULES = frozenset(_EXPORTS) | {"primes", "sums"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
