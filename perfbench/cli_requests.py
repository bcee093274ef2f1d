"""The CLI requests of the cli-startup and cli-heavy workloads and the checks
on their outputs.

Each request is an argv for `zetamax`; "{csv}" stands for a file in the
run's temporary directory.  Expected stdout documents and CSV spot rows are
checked in under expected/<workload>.json and written by
`python perfbench/record_expected.py` (only when an output change is
intended).
"""

from __future__ import annotations

import json
import os

from checks import compare, float_close

# criterion 13 of tests/test_acceptance.py
CLI_STARTUP = [
    ["rho", "--u", "2.5", "--max-u", "8"],
    ["laplace-check", "--s", "0", "0.5", "--max-u", "25"],
    ["moments", "--ell", "3"],
    ["bound", "--kind", "lower", "--ell", "1", "--scale", "1e9"],
    ["psi", "--x", "1000", "--y", "7"],
    ["twisted-sum", "--x", "300", "--y", "5", "--twist", "unimodular", "--t", "1.5"],
    ["error-profile", "--x", "150", "--twist", "trivial", "--y-grid", "2,20"],
    ["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "70", "--N", "70"],
    ["zeta-scan", "--ell", "0", "--t-lo", "40", "--t-hi", "41", "--step", "0.5",
     "--N", "64"],
    ["resonator-ratio", "--y", "3", "--b", "2", "--ell", "1", "--method", "both"],
    ["proof-bookkeeping", "--ell", "1", "--log10-T", "1e4", "--max-u", "20"],
    ["char-table", "--q", "11"],
    ["l-eval", "--q", "5", "--j", "2", "--ell", "0", "--N", "500"],
    ["l-max", "--q", "101", "--ell", "0", "--N", "300"],
    ["resonance-quotient", "--q", "101", "--ell", "0", "--y", "3", "--b", "2"],
]

# one large request per kernel family
CLI_HEAVY = [
    ["psi", "--x", "1e7", "--y", "1000"],
    ["psi", "--x", "1e10", "--y", "29"],
    ["twisted-sum", "--x", "1e7", "--y", "100", "--twist", "unimodular", "--t", "1e6"],
    ["error-profile", "--x", "3e6", "--twist", "unimodular", "--t", "1e9",
     "--y-grid", "7,100,1000"],
    ["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "1e7", "--N", "10000000"],
    ["zeta-eval", "--ell", "2", "--sigma", "1", "--t", "1e6", "--N", "1000000",
     "--reference"],
    ["zeta-scan", "--ell", "1", "--t-lo", "1e4", "--t-hi", "1.01e4", "--step", "0.05",
     "--N", "10000", "--csv-out", "{csv}"],
    ["char-table", "--q", "1000003"],
    ["l-max", "--q", "1000003", "--ell", "1", "--N", "10000000", "--csv-out", "{csv}"],
    ["resonance-quotient", "--q", "99991", "--ell", "2", "--y", "7", "--b", "5"],
    ["resonator-ratio", "--y", "5333", "--b", "6250", "--ell", "6", "--method",
     "factorized"],
    ["moments", "--ell", "200"],
    ["proof-bookkeeping", "--ell", "6", "--log10-T", "1e8", "--max-u", "60"],
]

REQUESTS = {"cli-startup": CLI_STARTUP, "cli-heavy": CLI_HEAVY}

HELP = ["--help"]

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def key(argv: list[str]) -> str:
    return " ".join(argv)


def with_csv(argv: list[str], csv_path: str) -> list[str]:
    return [csv_path if a == "{csv}" else a for a in argv]


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_stdout(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# CSV files: row count plus spot rows

def _csv_rows(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def csv_spots(argv: list[str], docs: list, rows: list[str]) -> dict:
    """Row count and the spot rows worth keeping for a --csv-out request:
    first, middle and last data rows, plus the row of the reported maximum."""
    n = len(rows) - 1
    picks = {1, 1 + n // 2, n}
    if argv[0] == "l-max":
        picks.add(docs[0]["j_star"])  # row j holds character j
    return {"header": rows[0], "rows": n,
            "spot": {str(i): rows[i] for i in sorted(picks)}}


def _parse_row(row: str) -> list:
    return [json.loads(v) for v in row.split(",")]


def check_csv(argv: list[str], want: dict, docs: list, rows: list[str]) -> list[str]:
    errs = []
    if not rows or rows[0] != want["header"]:
        return [f"csv header: expected {want['header']!r}"]
    if len(rows) - 1 != want["rows"]:
        return [f"csv rows: expected {want['rows']}, got {len(rows) - 1}"]
    for i, row in want["spot"].items():
        errs += compare(_parse_row(row), _parse_row(rows[int(i)]), f"csv[{i}]")
    if not errs:
        # the maximum the JSON reports must appear in the CSV it came from
        if argv[0] == "l-max":
            j, mod = _parse_row(rows[docs[0]["j_star"]])
            if j != docs[0]["j_star"] or mod != docs[0]["modulus"]:
                errs.append("csv row j_star disagrees with the reported modulus")
        elif argv[0] == "zeta-scan":
            best = max(_parse_row(r)[1] for r in rows[1:])
            # scan_to_csv and scan_max are separate evaluation paths
            if not float_close(best, docs[0]["value_modulus"], rtol=1e-8):
                errs.append(f"csv max {best!r} vs value_modulus "
                            f"{docs[0]['value_modulus']!r}")
    return errs


def check_request(expected: dict, argv: list[str], stdout: str,
                  csv_path: str | None) -> list[str]:
    """Mismatches of one request's output against the expected record."""
    want = expected[key(argv)]
    try:
        docs = parse_stdout(stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON lines: {e}"]
    errs = compare(want["stdout"], docs, "stdout")
    if errs or "csv" not in want:
        return errs
    if csv_path is None or not os.path.exists(csv_path):
        return ["csv file missing"]
    try:
        return check_csv(argv, want["csv"], docs, _csv_rows(csv_path))
    except (ValueError, IndexError) as e:  # malformed rows are a wrong output
        return [f"csv unreadable: {e}"]


def check_help(stdout: str) -> list[str]:
    return [] if stdout.startswith("usage: zetamax") else ["--help printed no usage"]
