#!/usr/bin/env bash
# Runs each perfbench workload briefly and fails unless its summary reads
# correct with no failed request.  run.py exits 0 whatever it finds; the
# last line of each run is its JSON summary.  session-warm checks each
# library call against a second route; 3 seconds give it its minimum of two
# rounds.  Run from the root of the repository.
set -euo pipefail
logs="${RUNNER_TEMP:-$(mktemp -d)}"
for run in "cli-startup 1" "cli-heavy 1" "session-warm 3"; do
  read -r workload seconds <<< "$run"
  python perfbench/run.py --workload "$workload" --seconds "$seconds" | tee "$logs/$workload.log"
  tail -n 1 "$logs/$workload.log" | python -c '
import json, sys
summary = json.load(sys.stdin)
if summary["correct"] is not True or summary["failed"] != 0:
    sys.exit(f"benchmark outputs are wrong: {summary}")'
done
