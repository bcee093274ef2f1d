"""Record the expected outputs of the CLI workloads' requests.

Usage (from the repository root): python3 perfbench/record_expected.py

Runs every request of cli_requests.REQUESTS once and writes
expected/<workload>.json.  Run it only when a change to the program's
output is intended, and review the diff of the written files.
"""

import json
import os
import shutil
import sys
import tempfile

import cli_requests
from run import ROOT, spawn


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        for workload, requests in cli_requests.REQUESTS.items():
            out = {}
            for argv in requests:
                csv_path = os.path.join(tmp, "out.csv")
                outcome = spawn([sys.executable, "-m", "zetamax.cli"]
                                + cli_requests.with_csv(argv, csv_path), tmp, 600.0)
                if outcome.code != 0:
                    sys.stderr.write(f"{argv}: exit {outcome.code}\n{outcome.stderr}")
                    return 1
                docs = cli_requests.parse_stdout(outcome.stdout)
                record = {"stdout": docs}
                if "{csv}" in argv:
                    with open(csv_path, encoding="utf-8") as f:
                        rows = f.read().splitlines()
                    record["csv"] = cli_requests.csv_spots(argv, docs, rows)
                out[cli_requests.key(argv)] = record
            path = os.path.join(cli_requests.EXPECTED_DIR, f"{workload}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(out, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
