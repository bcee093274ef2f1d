"""Command-line entry point.

One subcommand per operation family, machine-readable output (JSON objects
with a schema_version field, or CSV with a header row), deterministic bytes
for identical inputs.  Exit codes: 0 success, 2 validation error, 3
resource/precision budget exceeded.  Plot emission is data-only CSV.

Each handler imports the modules it runs, so a call loads only what its
subcommand needs, and building the parser (or `--help`) loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .constants import BOUND_KINDS
from .errors import (
    PrecisionUnreachableError,
    ResourceLimitError,
    TailNotCertifiedError,
)

SCHEMA_VERSION = 1
_MAX_SAMPLE = 10**5  # largest char-table --sample: one dict per dlog entry printed


def _emit_json(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _complex_fields(z: complex, prefix: str = "value") -> dict:
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag, f"{prefix}_abs": abs(z)}


def _build_table(args):
    from . import dickman

    if getattr(args, "table", None):
        return dickman.load_table(args.table)
    return dickman.build_rho_table(args.max_u, args.tol)


def _twist_from_args(args):
    from . import dirichlet, smooth

    if args.twist == "trivial":
        return smooth.Trivial()
    if args.twist == "unimodular":
        if args.t is None:
            raise ValueError("unimodular twist needs --t")
        return smooth.Unimodular(args.t)
    if args.twist == "character":
        if args.q is None or args.j is None:
            raise ValueError("character twist needs --q and --j")
        return smooth.Character(dirichlet.shared_character_table(args.q), args.j)
    raise ValueError(f"unknown twist {args.twist!r}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_rho(args) -> None:
    from . import dickman

    table = _build_table(args)
    if args.save_table:
        dickman.save_table(table, args.save_table)
    for u in args.u:
        doc = {
            "u": u,
            "rho": dickman.rho(u, table),
            "table_tol": table.tol,
            "max_u": table.max_u,
        }
        if u > 0:
            doc["log_asymptotic_main"] = dickman.log_rho_asymptotic_main(u)
        _emit_json(doc)


def _cmd_laplace_check(args) -> None:
    from . import dickman

    table = _build_table(args)
    for s in args.s:
        lhs = dickman.laplace_lhs(s, table, args.quad_tol)
        rhs = dickman.laplace_rhs(s)
        _emit_json({"s": s, "lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs)})


def _moment_doc(mv) -> dict:
    return {
        "ell": mv.ell,
        "numerator": mv.rational_part.numerator if mv.rational_part is not None else None,
        "denominator": mv.rational_part.denominator if mv.rational_part is not None else None,
        "float_value": mv.float_value,
        "method": mv.method,
    }


def _cmd_moments(args) -> None:
    from . import moments

    if args.method in ("bell", "both"):
        _emit_json(_moment_doc(moments.y_exact(args.ell)))
    if args.method in ("quadrature", "both"):
        table = _build_table(args)
        _emit_json(_moment_doc(moments.y_quadrature(args.ell, table, args.quad_tol)))


def _cmd_bound(args) -> None:
    from . import moments

    value = moments.bound_prediction(args.kind, args.ell, args.scale)
    _emit_json({"kind": args.kind, "ell": args.ell, "scale": args.scale, "value": value})


def _cmd_psi(args) -> None:
    from dataclasses import asdict

    from . import smooth

    _emit_json(asdict(smooth.psi_count(args.x, args.y)))


def _cmd_twisted_sum(args) -> None:
    from . import smooth

    twist = _twist_from_args(args)
    if args.y is None:
        value = smooth.full_twisted_sum(args.x, twist)
        scope = "full"
    else:
        value = smooth.smooth_twisted_sum(args.x, args.y, twist)
        scope = "smooth"
    _emit_json({"x": args.x, "y": args.y, "twist": args.twist, "scope": scope,
                **_complex_fields(value)})


def _cmd_error_profile(args) -> None:
    from dataclasses import asdict

    from . import smooth

    twist = _twist_from_args(args)
    grid = [float(v) for v in args.y_grid.split(",")]
    records = smooth.approximation_error_profile(args.x, twist, grid)
    if args.format == "csv":
        sys.stdout.write(smooth.profile_to_csv(records))
    else:
        for r in records:
            _emit_json(asdict(r))


def _cmd_zeta_eval(args) -> None:
    from . import zeta

    zeta.check_truncated_args(args.ell, args.sigma, args.t, args.N)
    doc = {}
    if args.reference:
        # before the truncated sum, so that a reference which cannot reach
        # --ref-tol fails fast
        ref = zeta.zeta_derivative_reference(args.ell, args.sigma, args.t, args.ref_tol)
        doc.update({
            "reference_re": ref.value.real, "reference_im": ref.value.imag,
            "reference_error_estimate": ref.error_estimate,
            "reference_cutoff": ref.truncation,
        })
    r = zeta.zeta_derivative_truncated(args.ell, args.sigma, args.t, args.N)
    doc.update({
        "ell": r.ell, "sigma": r.sigma, "t": r.t, "N": r.truncation,
        "error_estimate": r.error_estimate,
        "in_paper_regime": zeta.in_lemma_window(r.t, r.truncation),
        **_complex_fields(r.value),
    })
    _emit_json(doc)


def _cmd_zeta_scan(args) -> None:
    from . import zeta

    r = zeta.scan_max(args.ell, args.t_lo, args.t_hi, args.step, args.N)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as f:
            zeta.scan_result_to_csv(r, f)
    _emit_json({
        "t_star": r.t_star, "value_modulus": r.value_modulus, "ell": r.ell,
        "N": r.N, "window": [r.t_lo, r.t_hi], "step": r.step,
        "grid_size": r.grid_size, "in_paper_regime": r.in_paper_regime,
    })


def _cmd_resonator_ratio(args) -> None:
    from . import resonator

    spec = resonator.make_spec(args.y, args.b)
    methods = ["direct", "factorized"] if args.method == "both" else [args.method]
    for method in methods:
        if method == "direct":
            value = resonator.ratio_direct(spec, args.ell)
            bits = None
        else:
            value = resonator.ratio_factorized(spec, args.ell)
            bits = resonator.PRECISION_BITS
        _emit_json({"y": spec.y, "b": spec.b, "w": spec.w, "ell": args.ell,
                    "method": method, "value": value, "precision_bits": bits})


def _cmd_proof_bookkeeping(args) -> None:
    from dataclasses import asdict

    from . import resonator

    table = _build_table(args)
    r = resonator.proof_bookkeeping(args.ell, table, log_T=args.log10_T * math.log(10.0))
    _emit_json({**asdict(r), "sum_over_predicted": (r.S1 + r.S2) / r.predicted,
                "k2_over_predicted": r.K2_bound / r.predicted})


def _cmd_char_table(args) -> None:
    from . import dirichlet

    if args.sample < 0:
        raise ValueError(f"--sample must be >= 0, got {args.sample}")
    if args.sample > _MAX_SAMPLE:
        raise ResourceLimitError(f"--sample {args.sample} exceeds budget {_MAX_SAMPLE}")
    table = dirichlet.build_character_table(args.q)
    sample = [{"a": a, "dlog": int(table.dlog[a])} for a in range(1, min(args.sample, table.q))]
    _emit_json({"q": table.q, "generator": table.generator, "order": table.order,
                "verified": True, "sample": sample})


def _cmd_l_eval(args) -> None:
    from . import dirichlet

    dirichlet.check_sum_args(args.ell, args.N)
    table = dirichlet.shared_character_table(args.q)
    r = dirichlet.l_derivative_truncated(args.ell, table, args.j, args.N)
    _emit_json({"q": r.q, "j": r.j, "ell": r.ell, "N": r.N,
                "error_scale": r.error_scale, **_complex_fields(r.value)})


def _cmd_l_max(args) -> None:
    from . import dirichlet, moments

    r = dirichlet.max_over_characters(args.ell, args.q, args.N)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as f:
            dirichlet.moduli_to_csv(r, f)
    _emit_json({
        "q": r.q, "ell": r.ell, "N": r.N, "j_star": r.j_star, "modulus": r.modulus,
        "y_ell_prediction": moments.bound_prediction("lower", r.ell, r.q),
    })


def _cmd_resonance_quotient(args) -> None:
    from dataclasses import asdict

    from . import dirichlet, resonator

    spec = resonator.make_spec(args.y, args.b)
    _emit_json(asdict(dirichlet.resonance_quotient(args.ell, args.q, spec)))


# ---------------------------------------------------------------------------
# parser

def _add_table_opts(p, max_u_default: float) -> None:
    p.add_argument("--max-u", dest="max_u", type=float, default=max_u_default,
                   help="rho table domain end (ignored with --table)")
    p.add_argument("--tol", type=float, default=1e-12, help="rho table tolerance")
    p.add_argument("--table", type=str, default=None, help="load a saved rho table")


def _add_twist_opts(p) -> None:
    p.add_argument("--twist", choices=["trivial", "character", "unimodular"],
                   required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--t", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetamax",
        description="Dickman function, smooth sums, divisor resonators and "
                    "truncated zeta/L-derivative evaluation.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rho", help="evaluate the Dickman function")
    p.add_argument("--u", type=float, nargs="+", required=True)
    _add_table_opts(p, 20.0)
    p.add_argument("--save-table", dest="save_table", type=str, default=None)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("laplace-check", help="both sides of the Laplace identity")
    p.add_argument("--s", type=float, nargs="+", required=True)
    p.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-10,
                   help="tolerance of the left-side quadrature; the right side "
                        "is a float64 closed form")
    _add_table_opts(p, 40.0)
    p.set_defaults(func=_cmd_laplace_check)

    p = sub.add_parser("moments", help="moment constants Y_ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--method", choices=["bell", "quadrature", "both"], default="bell")
    p.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-9)
    _add_table_opts(p, 60.0)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bound", help="theorem-level bound constants")
    p.add_argument("--kind", choices=list(BOUND_KINDS), required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("psi", help="smooth-number count Psi(x, y)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("twisted-sum", help="smooth or full twisted sum")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=None,
                   help="smoothness bound; omit for the full sum over n <= x")
    _add_twist_opts(p)
    p.set_defaults(func=_cmd_twisted_sum)

    p = sub.add_parser("error-profile", help="full-vs-smooth discrepancy profile")
    p.add_argument("--x", type=float, required=True)
    _add_twist_opts(p)
    p.add_argument("--y-grid", dest="y_grid", type=str, required=True,
                   help="comma-separated smoothness bounds")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_error_profile)

    p = sub.add_parser("zeta-eval", help="truncated zeta-derivative series")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--reference", action="store_true",
                   help="also run the Euler-Maclaurin oracle")
    p.add_argument("--ref-tol", dest="ref_tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_zeta_eval)

    p = sub.add_parser("zeta-scan", help="grid argmax of the truncated modulus")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t-lo", dest="t_lo", type=float, required=True)
    p.add_argument("--t-hi", dest="t_hi", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--csv-out", dest="csv_out", type=str, default=None)
    p.set_defaults(func=_cmd_zeta_scan)

    p = sub.add_parser("resonator-ratio", help="divisor-resonator resonance ratio")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--method", choices=["direct", "factorized", "both"],
                   default="factorized")
    p.set_defaults(func=_cmd_resonator_ratio)

    p = sub.add_parser("proof-bookkeeping", help="S1/S2/K2 decomposition on the log scale")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--log10-T", dest="log10_T", type=float, required=True,
                   help="log10 of the scale T")
    _add_table_opts(p, 40.0)
    p.set_defaults(func=_cmd_proof_bookkeeping)

    p = sub.add_parser("char-table", help="character group table mod prime q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sample", type=int, default=8)
    p.set_defaults(func=_cmd_char_table)

    p = sub.add_parser("l-eval", help="truncated L-derivative value at s = 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_l_eval)

    p = sub.add_parser("l-max", help="family maximum over non-principal characters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--csv-out", dest="csv_out", type=str, default=None)
    p.set_defaults(func=_cmd_l_max)

    p = sub.add_parser("resonance-quotient", help="V2/V1 resonance quotient")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_resonance_quotient)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (ResourceLimitError, TailNotCertifiedError, PrecisionUnreachableError) as e:
        sys.stderr.write(f"error: resource-limit: {e}\n")
        return 3
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: invalid-argument: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
