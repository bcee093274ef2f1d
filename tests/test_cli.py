import argparse
import json
import math
import resource
import subprocess
import sys

import pytest

from cli_json import strict_loads
from zetamax import cli, dickman, dirichlet, zeta
from zetamax.errors import PrecisionUnreachableError

CLI = [sys.executable, "-m", "zetamax.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, timeout=600)


def test_moments_json_exact():
    r = run_cli("moments", "--ell", "3")
    assert r.returncode == 0
    doc = strict_loads(r.stdout)
    assert doc["numerator"] == 17
    assert doc["denominator"] == 6
    assert doc["ell"] == 3
    assert doc["method"] == "bell-exact"
    assert doc["schema_version"] == 1


def test_psi_exact_count():
    r = run_cli("psi", "--x", "10", "--y", "2")
    assert r.returncode == 0
    assert strict_loads(r.stdout)["exact_count"] == 4


def test_rho_and_table_roundtrip(tmp_path):
    path = str(tmp_path / "table.json")
    r1 = run_cli("rho", "--u", "2.0", "--max-u", "6", "--save-table", path)
    assert r1.returncode == 0
    r2 = run_cli("rho", "--u", "2.0", "--table", path)
    assert r2.returncode == 0
    assert strict_loads(r1.stdout)["rho"] == strict_loads(r2.stdout)["rho"]


def test_unknown_flag_exits_2_without_output():
    for argv in (("moments", "--ell", "3", "--bogus"),
                 ("--threads", "1", "moments", "--ell", "3"),
                 ("--precision-bits", "256", "moments", "--ell", "3"),
                 ("zeta-scan", "--ell", "0", "--t-lo", "30", "--t-hi", "31", "--step", "0.5",
                  "--N", "64", "--budget", "5"),
                 # --format is an error-profile option only, and log10 T the one scale
                 ("--format", "csv", "rho", "--u", "2", "--max-u", "8"),
                 ("moments", "--ell", "3", "--format", "csv"),
                 ("proof-bookkeeping", "--ell", "1", "--T", "1e300", "--max-u", "20")):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == b"", argv


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_validation_error_exits_2():
    r = run_cli("psi", "--x", "0.5", "--y", "10")
    assert r.returncode == 2
    assert r.stdout == b""
    assert b"invalid-argument" in r.stderr


def _assert_invalid_argument(r):
    assert r.returncode == 2
    assert r.stdout == b""
    lines = r.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: invalid-argument: ")


@pytest.mark.parametrize("log10_T", ["1e308", "inf", "nan"])
def test_non_finite_scale_exits_2(log10_T):
    # 1e308 * log(10) overflows to inf; none of these may end in a traceback
    _assert_invalid_argument(run_cli("proof-bookkeeping", "--ell", "1", "--log10-T", log10_T))


@pytest.mark.parametrize("argv", [
    ("laplace-check", "--s", "nan", "--max-u", "25"),
    ("laplace-check", "--s", "inf", "--max-u", "25"),
    ("zeta-eval", "--ell", "1", "--sigma", "1", "--t", "nan", "--N", "100"),
    ("zeta-eval", "--ell", "1", "--sigma", "1", "--t", "inf", "--N", "100"),
    ("zeta-eval", "--ell", "1", "--sigma", "nan", "--t", "5", "--N", "100"),
    ("psi", "--x", "inf", "--y", "10"),
    ("psi", "--x", "100", "--y", "nan"),
    ("twisted-sum", "--x", "inf", "--twist", "trivial"),
    ("twisted-sum", "--x", "inf", "--y", "10", "--twist", "unimodular", "--t", "1"),
    ("error-profile", "--x", "inf", "--twist", "trivial", "--y-grid", "2"),
    ("bound", "--kind", "lower", "--ell", "1", "--scale", "inf"),
    ("psi", "--x", "1000", "--y=inf"),
    ("twisted-sum", "--x=-inf", "--y", "5", "--twist", "unimodular", "--t", "1.5"),
    ("twisted-sum", "--x=-inf", "--twist", "trivial"),
    ("twisted-sum", "--x", "300", "--y=inf", "--twist", "unimodular", "--t", "1.5"),
    ("error-profile", "--x", "150", "--twist", "trivial", "--y-grid", "2,inf"),
], ids=["s-nan", "s-inf", "t-nan", "t-inf", "sigma-nan", "psi-x-inf", "psi-y-nan",
        "full-sum-x-inf", "smooth-sum-x-inf", "profile-x-inf", "bound-scale-inf",
        "psi-y-inf", "smooth-sum-x-minus-inf", "full-sum-x-minus-inf", "smooth-sum-y-inf",
        "profile-y-inf"])
def test_non_finite_argument_exits_2(argv):
    # NaN passes a plain "s < 0" test; neither it nor inf may reach the output
    _assert_invalid_argument(run_cli(*argv))


def test_bookkeeping_beyond_table_exits_2():
    # u_R = 6.135 > max_u = 4: no S2 from an integral clipped at the table end
    _assert_invalid_argument(run_cli("proof-bookkeeping", "--ell", "6", "--log10-T", "1e8",
                                     "--max-u", "4"))


def test_inconsistent_table_file_exits_2(tmp_path):
    saved = tmp_path / "table.json"
    assert run_cli("rho", "--u", "2.0", "--max-u", "10", "--save-table", str(saved)).returncode == 0

    def renumber_last_interval(doc):
        doc["intervals"][-1]["k"] = 10

    def drop_coeffs(doc):
        del doc["intervals"][3]["coeffs"]

    # a malformed piece: unchecked, it loaded, and rho on its interval ended
    # in a traceback (exit 1) or printed rho = nan
    def empty_piece(doc):
        doc["intervals"][3]["coeffs"] = []

    def nested_piece(doc):
        doc["intervals"][3]["coeffs"] = [doc["intervals"][3]["coeffs"]]

    def nan_in_piece(doc):
        doc["intervals"][3]["coeffs"][5] = math.nan

    def piece_beyond_degree(doc):
        doc["intervals"][3]["coeffs"].append(0.0)

    # a degree the builder never reaches: its certificate would cost degree^2
    def degree_beyond_builder(doc):
        doc["degree"] = 41

    for edit in (renumber_last_interval, drop_coeffs, empty_piece, nested_piece,
                 nan_in_piece, piece_beyond_degree, degree_beyond_builder):
        doc = strict_loads(saved.read_text())
        edit(doc)
        path = tmp_path / f"{edit.__name__}.json"
        path.write_text(json.dumps(doc))
        _assert_invalid_argument(run_cli("rho", "--u", "5", "--table", str(path)))


def test_forged_table_file_prints_a_certificate_that_covers_its_error(tmp_path):
    # a file whose interval 3 is off by 1e-3 and whose stored tolerances
    # all read 0, in the format that stored them: while the file set the
    # certificate, rho --u 3.5 printed "table_tol": 0.0 with exit 0
    path = tmp_path / "forged.json"
    dickman.save_table(dickman.build_rho_table(8.0, 1e-6), str(path))
    doc = json.loads(path.read_text())
    doc["intervals"][3]["coeffs"][0] += 1e-3
    doc.update(tol=0.0, interval_tols=[0.0] * len(doc["intervals"]))
    path.write_text(json.dumps(doc))
    r = run_cli("rho", "--u", "3.5", "--table", str(path))
    assert r.returncode == 0, r.stderr.decode()
    out = strict_loads(r.stdout)
    # the certificate exceeds the forged error by about 3.5e-15, so the
    # oracle is a table certified to 1.2e-15
    fresh = dickman.rho(3.5, dickman.build_rho_table(8.0, 1e-14))
    assert out["table_tol"] >= abs(out["rho"] - fresh) >= 1e-3 - 1e-12


@pytest.mark.parametrize("argv", [
    ("zeta-scan", "--ell", "1", "--t-lo", "1e4", "--t-hi", "2e4", "--step", "0.05",
     "--N", "1000000"),
    # pi(y) > 20 and x beyond the sieve: no route, found before any sieve work
    ("psi", "--x", "1e10", "--y", "1e9"),
    ("twisted-sum", "--x", "1e10", "--y", "2e9", "--twist", "trivial"),
    # the rounding floor at the first cutoff M = 2e7 + 1 exceeds --ref-tol
    ("zeta-eval", "--ell", "3", "--sigma", "1", "--t", "1e7", "--N", "100", "--reference"),
    # one grid point times N = 2e9 is within the grid*N budget, but N is
    # beyond the term budget of one truncated sum (1e8)
    ("zeta-scan", "--ell", "1", "--t-lo", "1e4", "--t-hi", "1e4", "--step", "1",
     "--N", "2000000000"),
    ("zeta-eval", "--ell", "1", "--sigma", "1", "--t", "1e4", "--N", "2000000000"),
], ids=["zeta-scan", "psi", "twisted-sum", "zeta-eval-reference", "zeta-scan-N", "zeta-eval-N"])
def test_resource_limit_exits_3(argv):
    # under a 4 GiB address-space cap, a request that slips past its budget
    # fails its first large allocation at once (MemoryError, exit 1) instead
    # of filling the machine
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    r = subprocess.run(CLI + list(argv), capture_output=True, timeout=600,
                       preexec_fn=cap_address_space)
    assert r.returncode == 3
    assert r.stdout == b""
    lines = r.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: resource-limit: ")


def test_sieve_limit_is_named_in_short_form(capsys):
    assert cli.main(["psi", "--x", "1e200", "--y", "100"]) == 3
    assert capsys.readouterr() == (
        "", "error: resource-limit: sieve limit 1e+200 outside [2, 100000000]\n")


def test_character_twist_beyond_int64_exits_0():
    # the enumeration keeps Python ints above 2^63; their residues mod q
    # must still index the character table
    r = run_cli("twisted-sum", "--x", "1e20", "--y", "3", "--twist", "character",
                "--q", "7", "--j", "1")
    assert r.returncode == 0, r.stderr.decode()
    assert strict_loads(r.stdout)["schema_version"] == 1


def test_composite_modulus_rejected():
    r = run_cli("char-table", "--q", "15")
    assert r.returncode == 2


@pytest.mark.parametrize("sample, code, message", [
    ("-3", 2, "error: invalid-argument: --sample must be >= 0, got -3\n"),
    ("100001", 3, "error: resource-limit: --sample 100001 exceeds budget 100000\n"),
    ("1000003", 3, "error: resource-limit: --sample 1000003 exceeds budget 100000\n"),
], ids=["negative", "above-budget", "all-of-q"])
def test_char_table_sample_is_checked_before_the_table_is_built(monkeypatch, capsys, sample,
                                                                  code, message):
    # unchecked, a negative sample printed an empty list and a huge one held
    # every entry of the table as a dict at once
    def no_table(q):
        raise AssertionError("table built")

    monkeypatch.setattr(dirichlet, "build_character_table", no_table)
    assert cli.main(["char-table", "--q", "1000003", "--sample", sample]) == code
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("sample, size", [("0", 0), ("100000", 10)])
def test_char_table_sample_within_budget(capsys, sample, size):
    assert cli.main(["char-table", "--q", "11", "--sample", sample]) == 0
    assert len(strict_loads(capsys.readouterr().out)["sample"]) == size


@pytest.mark.parametrize("args", [
    ("moments", "--ell", "4", "--method", "both", "--max-u", "30"),
    ("laplace-check", "--s", "0", "1", "--max-u", "25"),
    ("bound", "--kind", "rh-upper", "--ell", "1", "--scale", "1e9"),
    ("psi", "--x", "1000", "--y", "10"),
    ("twisted-sum", "--x", "500", "--y", "7", "--twist", "unimodular", "--t", "2.5"),
    ("twisted-sum", "--x", "500", "--twist", "character", "--q", "7", "--j", "1"),
    ("error-profile", "--x", "200", "--twist", "trivial", "--y-grid", "2,10,300"),
    ("zeta-eval", "--ell", "1", "--sigma", "1", "--t", "60", "--N", "60", "--reference"),
    ("zeta-scan", "--ell", "0", "--t-lo", "30", "--t-hi", "32", "--step", "0.5", "--N", "64"),
    ("resonator-ratio", "--y", "3", "--b", "2", "--ell", "1", "--method", "both"),
    ("proof-bookkeeping", "--ell", "0", "--log10-T", "1e4", "--max-u", "20"),
    ("char-table", "--q", "11"),
    ("l-eval", "--q", "5", "--j", "2", "--ell", "0", "--N", "1000"),
    ("l-max", "--q", "101", "--ell", "0", "--N", "500"),
    ("resonance-quotient", "--q", "101", "--ell", "0", "--y", "3", "--b", "2"),
])
def test_subcommands_byte_deterministic(args):
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0, a.stderr.decode()
    assert a.stdout == b.stdout
    for line in a.stdout.decode().strip().split("\n"):
        assert strict_loads(line)["schema_version"] == 1


def test_error_profile_csv_format():
    r = run_cli("error-profile", "--format", "csv", "--x", "100",
                "--twist", "trivial", "--y-grid", "2,10")
    assert r.returncode == 0
    lines = r.stdout.decode().strip().split("\n")
    assert lines[0] == "y,discrepancy,psi_xy,ratio"
    assert len(lines) == 3


def test_zeta_scan_csv_out(tmp_path):
    path = str(tmp_path / "scan.csv")
    r = run_cli("zeta-scan", "--ell", "0", "--t-lo", "30", "--t-hi", "31",
                "--step", "0.5", "--N", "64", "--csv-out", path)
    assert r.returncode == 0
    with open(path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "t,modulus"
    assert len(lines) == 4
    # the CSV and the reported maximum come from one modulus array
    best = max(float(line.split(",")[1]) for line in lines[1:])
    assert best == strict_loads(r.stdout)["value_modulus"]


# the subcommands that print a library result record as it is: a field added
# to the record changes the output schema, and must change these sets too
@pytest.mark.parametrize("argv, keys", [
    (("psi", "--x", "1000", "--y", "7"),
     {"x", "y", "exact_count", "dickman_approx", "u", "relative_error"}),
    (("error-profile", "--x", "150", "--twist", "trivial", "--y-grid", "2,20"),
     {"y", "discrepancy", "psi_xy", "ratio"}),
    (("proof-bookkeeping", "--ell", "1", "--log10-T", "1e4", "--max-u", "20"),
     {"ell", "log_T", "log2_T", "log3_T", "y", "b", "u_R", "S1", "S2", "K2_bound",
      "predicted", "k1_exponent_cap", "k1_inner_floor", "sum_over_predicted",
      "k2_over_predicted"}),
    (("resonance-quotient", "--q", "101", "--ell", "0", "--y", "3", "--b", "2"),
     {"q", "ell", "A", "N", "v2_over_v1", "error_term_scale", "closed_form",
      "support_size", "principal_correction"}),
], ids=["psi", "error-profile", "proof-bookkeeping", "resonance-quotient"])
def test_record_subcommands_print_exactly_the_record_fields(argv, keys):
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr.decode()
    docs = [strict_loads(line) for line in r.stdout.decode().splitlines()]
    assert docs
    for doc in docs:
        assert set(doc) == keys | {"schema_version"}


def test_l_max_prediction_field():
    r = run_cli("l-max", "--q", "101", "--ell", "1", "--N", "300")
    doc = strict_loads(r.stdout)
    assert {"q", "ell", "N", "j_star", "modulus", "y_ell_prediction"} <= set(doc)


# one argv per subcommand with a float option; together they name every
# float option of the parser
FLOAT_OPTION_BASES = [
    ("rho", "--u", "2.5", "--max-u", "8", "--tol", "1e-10"),
    ("laplace-check", "--s", "0.5", "--quad-tol", "1e-10", "--max-u", "25", "--tol", "1e-10"),
    ("moments", "--ell", "2", "--method", "both", "--quad-tol", "1e-9", "--max-u", "30",
     "--tol", "1e-10"),
    ("bound", "--kind", "lower", "--ell", "1", "--scale", "1e9"),
    ("psi", "--x", "1000", "--y", "7"),
    ("twisted-sum", "--x", "300", "--y", "5", "--twist", "unimodular", "--t", "1.5"),
    ("error-profile", "--x", "150", "--twist", "unimodular", "--t", "1.5", "--y-grid", "2,20"),
    ("zeta-eval", "--ell", "1", "--sigma", "1", "--t", "70", "--N", "70", "--reference",
     "--ref-tol", "1e-8"),
    ("zeta-scan", "--ell", "0", "--t-lo", "40", "--t-hi", "41", "--step", "0.5", "--N", "64"),
    ("resonator-ratio", "--y", "3", "--b", "2", "--ell", "1"),
    ("proof-bookkeeping", "--ell", "1", "--log10-T", "1e4", "--max-u", "20", "--tol", "1e-10"),
    # T = 10^300 is below the regime (y <= 1): each non-finite value meets that scale
    ("proof-bookkeeping", "--ell", "0", "--log10-T", "300", "--max-u", "20", "--tol", "1e-10"),
    ("resonance-quotient", "--q", "101", "--ell", "0", "--y", "3", "--b", "2"),
]


def _float_options():
    """(subcommand, option string) for every float option of the parser."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {(name, opt) for name, p in subs.choices.items()
            for a in p._actions if a.type is float for opt in a.option_strings}


def _non_finite_cases():
    floats = _float_options()
    for base in FLOAT_OPTION_BASES:
        for i, tok in enumerate(base):
            if (base[0], tok) in floats:
                for value in ("inf", "-inf", "nan"):
                    # --opt=value, so that argparse takes -inf as a value
                    yield [*base[:i], f"{tok}={value}", *base[i + 2:]]


def test_non_finite_cases_cover_every_float_option():
    covered = {(argv[0], tok.split("=")[0]) for argv in _non_finite_cases()
               for tok in argv if "=" in tok}
    assert covered == _float_options()


@pytest.mark.parametrize("argv", list(_non_finite_cases()), ids=" ".join)
def test_non_finite_float_option_exits_cleanly(argv, capsys):
    # 0 where the value is meaningful (tol=inf), 2 or 3 otherwise; never a
    # traceback, and never an Infinity or NaN token in a successful output
    code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        for line in capsys.readouterr().out.splitlines():
            strict_loads(line)


# results that float64 cannot hold, with the quantity each error names
BEYOND_FLOAT64 = [
    (["bound", "--kind", "lower", "--ell", "200", "--scale", "1e9"], "lower bound"),
    (["bound", "--kind", "rh-upper", "--ell", "190", "--scale", "1e300"], "rh-upper bound"),
    (["proof-bookkeeping", "--ell", "150", "--log10-T", "1e8", "--max-u", "60"], "predicted"),
    (["proof-bookkeeping", "--ell", "150", "--log10-T", "1e14", "--max-u", "60"], "S2"),
    (["proof-bookkeeping", "--ell", "200", "--log10-T", "1e100", "--max-u", "60"],
     "(log k)^200/k"),
    (["psi", "--x", "1e300", "--y", "2"], "relative_error"),
    (["zeta-eval", "--ell", "200", "--sigma", "1", "--t", "100", "--N", "100"],
     "truncation error estimate"),
    (["zeta-scan", "--ell", "400", "--t-lo", "100", "--t-hi", "101", "--step", "1",
      "--N", "100000"], "sum at ell=400"),
    (["resonator-ratio", "--y", "3", "--b", "100", "--ell", "200", "--method", "direct"],
     "direct resonance ratio"),
]
# their neighbours, which float64 still holds
WITHIN_FLOAT64 = [
    ["bound", "--kind", "lower", "--ell", "180", "--scale", "1e9"],
    ["proof-bookkeeping", "--ell", "120", "--log10-T", "1e8", "--max-u", "60"],
    ["proof-bookkeeping", "--ell", "100", "--log10-T", "1e14", "--max-u", "60"],
    ["psi", "--x", "1e30", "--y", "2"],
    # (log k)^150 is beyond float64 for the largest divisors, not the terms
    ["resonator-ratio", "--y", "3", "--b", "100", "--ell", "150", "--method", "direct"],
]


@pytest.mark.parametrize("argv, quantity", BEYOND_FLOAT64,
                         ids=[" ".join(argv) for argv, _ in BEYOND_FLOAT64])
def test_result_beyond_float64_exits_3(argv, quantity, capsys):
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and quantity in err and "float64" in err, err


@pytest.mark.parametrize("argv", WITHIN_FLOAT64, ids=" ".join)
def test_result_within_float64_is_strict_json(argv, capsys):
    assert cli.main(argv) == 0
    for line in capsys.readouterr().out.splitlines():
        strict_loads(line)


def test_bookkeeping_names_the_ell_guard_first(capsys):
    # S1 at ell = 250 leaves float range too; the guard on ell is named first
    argv = ["proof-bookkeeping", "--ell", "250", "--log10-T", "1e15", "--max-u", "60"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: invalid-argument: ell > 200: coefficient growth guard\n")


def test_failing_reference_skips_truncated_sum(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("truncated sum started before the reference failed")

    monkeypatch.setattr(zeta, "zeta_derivative_truncated", no_work)
    argv = ["zeta-eval", "--ell", "3", "--sigma", "1", "--t", "1e7", "--N", "10000000",
            "--reference"]
    with pytest.raises(PrecisionUnreachableError):
        zeta.zeta_derivative_reference(3, 1.0, 1e7, 1e-8)
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == ""
    # an invalid truncation is still reported as one, before the reference
    argv[argv.index("--N") + 1] = "1"
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
