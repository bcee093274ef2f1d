"""A CLI call loads only the modules its subcommand runs, and the lazy
package namespace still serves every name it exported when it loaded all
of them."""

import json
import os
import subprocess
import sys

import pytest

from cli_json import strict_loads
import zetamax

# the namespace of `import zetamax` when it imported every submodule
OLD_EXPORTS = {
    "constants": ["EULER_GAMMA", "EXP_GAMMA"],
    "dickman": ["DickmanTable", "build_rho_table", "laplace_lhs", "laplace_rhs",
                "load_table", "log_rho_asymptotic_main", "rho", "save_table"],
    "dirichlet": ["CharacterTable", "LSeriesValue", "MaxCharResult", "ResonanceQuotient",
                  "build_character_table", "l_derivative_truncated",
                  "max_over_characters", "resonance_quotient"],
    "errors": ["OutOfDomainError", "OutOfRegimeError", "PrecisionUnreachableError",
               "PrincipalCharacterError", "ResourceLimitError", "TailNotCertifiedError"],
    "moments": ["MomentValue", "bound_prediction", "complete_bell", "y_exact",
                "y_quadrature"],
    "resonator": ["BookkeepingResult", "ResonatorSpec", "log_power_sum", "make_spec",
                  "proof_bookkeeping", "ratio_direct", "ratio_factorized", "spec_from_T"],
    "smooth": ["Character", "ProfileRecord", "SmoothCountResult", "Trivial", "TwistSpec",
               "Unimodular", "approximation_error_profile", "full_twisted_sum",
               "psi_count", "smooth_twisted_sum", "spf_sieve"],
    "zeta": ["EvalResult", "ScanResult", "scan_max", "zeta_derivative",
             "zeta_derivative_reference", "zeta_derivative_truncated"],
}
OLD_SUBMODULES = [*OLD_EXPORTS, "primes", "sums"]

# what `import zetamax.cli` may load of the package: no numerical module
CLI_BASE = {"zetamax", "zetamax.cli", "zetamax.constants", "zetamax.errors"}

# `python -m zetamax.cli ARGS` that writes sys.modules to stderr at exit
_RUN_CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)) + "\\n"))
sys.argv = ["zetamax", *sys.argv[1:]]
runpy.run_module("zetamax.cli", run_name="__main__", alter_sys=True)
"""


def _modules_after(code: str, *args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                       text=True, timeout=120)
    return r, set(json.loads(r.stderr.splitlines()[-1]))


def _package_and_deps(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] in ("zetamax", "numpy", "mpmath")}


def test_importing_the_cli_loads_no_numerical_module():
    code = "import json, sys, zetamax.cli; sys.stderr.write(json.dumps(sorted(sys.modules)))"
    r, modules = _modules_after(code)
    assert r.returncode == 0, r.stderr
    assert _package_and_deps(modules) == CLI_BASE


def test_help_loads_no_numpy():
    r, modules = _modules_after(_RUN_CLI, "--help")
    assert r.returncode == 0
    assert "zetamax" in r.stdout
    assert _package_and_deps(modules) <= CLI_BASE  # run as __main__, not zetamax.cli


def test_rho_loads_numpy_but_not_mpmath():
    r, modules = _modules_after(_RUN_CLI, "rho", "--u", "2.5", "--max-u", "6")
    assert r.returncode == 0
    assert strict_loads(r.stdout)["u"] == 2.5
    assert "numpy" in modules and "zetamax.dickman" in modules
    assert "mpmath" not in modules
    assert "zetamax.resonator" not in modules


def test_lazy_namespace_serves_every_old_name():
    assert sorted(zetamax.__all__) == sorted(n for names in OLD_EXPORTS.values() for n in names)
    listed = dir(zetamax)
    for module in OLD_SUBMODULES:
        assert getattr(zetamax, module) is sys.modules[f"zetamax.{module}"]
        assert module in listed, module
    for module, names in OLD_EXPORTS.items():
        for name in names:
            assert getattr(zetamax, name) is getattr(sys.modules[f"zetamax.{module}"], name), name
            assert name in listed, name
    assert zetamax.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        zetamax.no_such_name


def test_proof_bookkeeping_loads_no_mpmath():
    # y = 3.3e7: S1 = log_power_sum(1, y) is summed by Euler-Maclaurin
    r, modules = _modules_after(_RUN_CLI, "proof-bookkeeping", "--ell", "1",
                                "--log10-T", "1e12", "--max-u", "60")
    assert r.returncode == 0, r.stderr
    assert strict_loads(r.stdout)["y"] > 3e7
    assert "zetamax.resonator" in modules
    assert "mpmath" not in modules


@pytest.mark.parametrize("argv", [
    ["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "70", "--N", "70"],
    ["twisted-sum", "--x", "300", "--y", "5", "--twist", "unimodular", "--t", "1.5"],
    ["l-max", "--q", "101", "--ell", "0", "--N", "300"],
    pytest.param(["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "1e5", "--N", "100000"],
                 id="zeta-eval-one-full-block"),
], ids=lambda argv: argv[0])
def test_small_requests_start_no_thread_pool(argv):
    r, modules = _modules_after(_RUN_CLI, *argv)
    assert r.returncode == 0, r.stderr
    assert "concurrent.futures" not in modules


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: [0])(0)) < 2,
                    reason="long sums run inline on one CPU")
def test_long_sum_starts_the_thread_pool():
    # the control for the test above: its import is seen when it happens
    r, modules = _modules_after(_RUN_CLI, "zeta-eval", "--ell", "1", "--sigma", "1",
                                "--t", "1e5", "--N", "300000")
    assert r.returncode == 0, r.stderr
    assert "concurrent.futures" in modules
