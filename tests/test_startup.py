"""A CLI call loads only the modules its subcommand runs, and the lazy
package namespace still serves every name it exported when it loaded all
of them."""

import functools
import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from cli_json import strict_loads
import zetamax
from zetamax import dickman

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


# the ledger below checks the smaller requests
@pytest.mark.parametrize("argv", [
    pytest.param(["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "1e5", "--N", "100000"],
                 id="zeta-eval-one-full-block"),
])
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


# The heavy modules each criterion-13 request loads (tests/test_acceptance.py),
# beside zetamax.constants and zetamax.errors, which the CLI always loads:
# no request loads numpy.random, only resonator-ratio loads mpmath, and
# moments and bound load no numpy.
HEAVY = {"numpy", "numpy.random", "mpmath", "concurrent.futures"}
LEDGER = [
    (["rho", "--u", "2.5", "--max-u", "8"], {"numpy", "dickman"}),
    (["laplace-check", "--s", "0", "0.5", "--max-u", "25"], {"numpy", "dickman"}),
    (["moments", "--ell", "3"], {"moments"}),
    (["bound", "--kind", "lower", "--ell", "1", "--scale", "1e9"], {"moments"}),
    (["psi", "--x", "1000", "--y", "7"], {"numpy", "dickman", "primes", "smooth", "sums"}),
    (["twisted-sum", "--x", "300", "--y", "5", "--twist", "unimodular", "--t", "1.5"],
     {"numpy", "primes", "smooth", "sums"}),
    (["error-profile", "--x", "150", "--twist", "trivial", "--y-grid", "2,20"],
     {"numpy", "primes", "smooth", "sums"}),
    (["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "70", "--N", "70"],
     {"numpy", "sums", "zeta"}),
    (["zeta-scan", "--ell", "0", "--t-lo", "40", "--t-hi", "41", "--step", "0.5", "--N", "64"],
     {"numpy", "sums", "zeta"}),
    (["resonator-ratio", "--y", "3", "--b", "2", "--ell", "1", "--method", "both"],
     {"mpmath", "numpy", "moments", "primes", "resonator", "sums"}),
    (["proof-bookkeeping", "--ell", "1", "--log10-T", "1e4", "--max-u", "20"],
     {"numpy", "dickman", "moments", "primes", "resonator", "sums"}),
    (["char-table", "--q", "11"], {"numpy", "dirichlet", "primes", "sums"}),
    (["l-eval", "--q", "5", "--j", "2", "--ell", "0", "--N", "500"],
     {"numpy", "dirichlet", "primes", "sums"}),
    (["l-max", "--q", "101", "--ell", "0", "--N", "300"],
     {"numpy", "dirichlet", "moments", "primes", "sums"}),
    (["resonance-quotient", "--q", "101", "--ell", "0", "--y", "3", "--b", "2"],
     {"numpy", "dirichlet", "moments", "primes", "resonator", "sums"}),
]


@functools.cache
def _loaded_with_numpy() -> frozenset[str]:
    """What `import numpy` loads besides itself: numpy 1.x imports
    numpy.random and numpy.polynomial with it, and no import of the package
    can avoid those."""
    _, modules = _modules_after("import json, sys, numpy; "
                                "sys.stderr.write(json.dumps(sorted(sys.modules)))")
    return frozenset(modules - {"numpy"})


def _heavy(modules: set[str]) -> set[str]:
    """HEAVY modules by name, package modules by their name in the package."""
    return ({m for m in modules if m in HEAVY - _loaded_with_numpy()}
            | {m.split(".", 1)[1] for m in modules if m.startswith("zetamax.")})


@pytest.mark.parametrize("argv, loads", LEDGER, ids=[argv[0] for argv, _ in LEDGER])
def test_each_request_loads_only_what_it_runs(argv, loads):
    r, modules = _modules_after(_RUN_CLI, *argv)
    assert r.returncode == 0, r.stderr
    assert _heavy(modules) == loads | {"constants", "errors"}


@pytest.mark.parametrize("module, call", [
    ("moments", None),
    ("smooth", lambda smooth: smooth.psi_count(1000.0, 7)),
    ("resonator", lambda resonator: resonator.proof_bookkeeping(
        1, dickman.build_rho_table(20.0, 1e-12), log_T=1e4 * math.log(10.0))),
], ids=["moments", "smooth", "resonator"])
def test_rho_reexport_is_dickman_rho_on_every_access(module, call, monkeypatch):
    # perfbench rebinds dickman.rho and reads it back through these modules
    mod = importlib.import_module(f"zetamax.{module}")
    original = dickman.rho
    assert mod.rho is original
    calls = []

    def stub(u, table):
        calls.append(u)
        return original(u, table)

    monkeypatch.setattr(dickman, "rho", stub)
    assert mod.rho is stub
    if call is not None:  # the module's own call goes through the rebinding
        call(mod)
        assert len(calls) == 1
    monkeypatch.undo()
    assert mod.rho is original
    with pytest.raises(AttributeError, match=rf"'zetamax\.{module}' has no attribute 'nope'"):
        mod.nope


@pytest.mark.parametrize("module, absent", [
    ("moments", {"numpy", "zetamax.dickman"}),
    ("smooth", {"zetamax.dickman", "zetamax.dirichlet", "numpy.polynomial"}),
    ("resonator", {"zetamax.dickman", "numpy.polynomial", "mpmath"}),
], ids=["moments", "smooth", "resonator"])
def test_importing_a_module_leaves_dickman_out(module, absent):
    code = (f"import json, sys, zetamax.{module}; "
            "sys.stderr.write(json.dumps(sorted(sys.modules)))")
    r, modules = _modules_after(code)
    assert r.returncode == 0, r.stderr
    assert f"zetamax.{module}" in modules
    assert modules.isdisjoint(absent - _loaded_with_numpy()), modules & absent
