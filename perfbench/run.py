"""zetamax benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --describe

NAME is a workload of BENCHMARK.json, which says why each exists.  The
program is driven only from outside: fresh `python -m zetamax.cli ...`
processes for the CLI workloads, a benchmark child process calling the
public library API for session-warm.  At most
one child runs at a time, with one-thread BLAS and a fixed PYTHONHASHSEED.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with tracing
off, with request times scaled to a reference machine speed (speed.py).
--trace 1 runs the same requests untraced, then again with spans around
every public library function (launcher.py, session.py --trace), and
reports its per-layer metrics, including the tracing overhead, and whether
the workload's stated emphasis (CLAIMS) holds.  Every output is
checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import cli_requests
import spans
import spec
import speed

_clock = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")

BENCH = spec.load()
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Typical length of a CLI pass, and of a session-warm round, on a 2-vCPU
# Intel Xeon VM.  A run makes round(seconds / length) whole passes (at least
# one) or rounds (at least two): a fixed count keeps the sample count, and so
# the tail percentile, the same in every run, however fast the machine
# happens to be.
PASS_S = {"cli-startup": 6.0, "cli-heavy": 30.0}
SESSION_ROUND_S = 3.0      # session-warm: round(seconds / this) rounds of one pass, >= 2
HELP_EVERY = 3             # CLI: a `zetamax --help` start before every 3rd request
SESSION_SETUPS = 3         # session children warmed per run; setup_s is their median
CLI_PROBES = 10            # CLI: speed.probe() timings before each request
REQUEST_TIMEOUT_S = 60.0   # the slowest CLI request takes ~6 s
SESSION_TIMEOUT_S = 150.0
# spans that should cover most of a cli-heavy pass
HOT_PREFIXES = ("smooth.spf_sieve", "dirichlet.build_character_table",
                "resonator.ratio_factorized", "zeta.")
# (workload, emphasis figure) -> (claim, test): the emphasis each workload
# exists for, which its traced run confirms or refutes
CLAIMS = {
    ("cli-startup", "cli.import_s / latency_p50_s"): ("> 0.5", lambda v: v > 0.5),
    ("cli-heavy", "hot spans / traced pass"): ("> 0.5", lambda v: v > 0.5),
    ("session-warm", "smooth.spf_sieve.calls (timed region)"): ("= 0", lambda v: v == 0),
    ("session-warm", "dirichlet.build_character_table.calls (timed region)"):
        ("= 0", lambda v: v == 0),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "mpmath": metadata.version("mpmath")}


# ---------------------------------------------------------------------------
# child processes

class Outcome:
    def __init__(self, seconds: float, code: int | None, rss_kb: int, stdout: str,
                 stderr: str):
        self.seconds, self.code, self.rss_kb = seconds, code, rss_kb
        self.stdout, self.stderr = stdout, stderr


def spawn(argv: list[str], tmp: str, timeout: float) -> Outcome:
    """Run argv to completion; time it from spawn to exit and take its rusage.

    The child is reaped with wait4 (not Popen.wait) so its own peak RSS is
    read; a pidfd wakes the parent the moment the child exits.
    """
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = _clock()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=tmp)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = _clock() - t0
        finally:
            os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if ready else None
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Outcome(seconds, code, usage.ru_maxrss, stdout, stderr)


# ---------------------------------------------------------------------------
# statistics

def tail(samples: list[float]) -> tuple[float, str]:
    """(value, note): the highest percentile with >= 10 samples beyond it,
    but never below the median.  With fewer than 21 samples (one cli-heavy
    pass has 13) that percentile would sit under the median and name no tail
    at all, so the median is reported, and the note says so."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    note = f"p{100.0 * (k + 1) / n:.1f} of {n} samples"
    if k < n - 11:
        note += "; under 21 samples, so this is the median and no tail is measured"
    return xs[k], note


class Tally:
    """Requests attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: {errors[0]}")
        return not errors


def end_to_end(latencies: list[float], ok: int, rss_kb: int, setups: list[float]) -> dict:
    value, note = tail(latencies)
    return {
        "ops_per_s": ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setups),
        "_tail_note": note,
    }


def scaled_note(metrics: dict, scale: float) -> str:
    return (f"request times scaled by {scale:.4f} to the reference machine speed; as "
            f"measured, ops_per_s = {metrics['ops_per_s'] * scale:.6g} 1/s, "
            f"latency_p50_s = {metrics['latency_p50_s'] / scale:.6g} s, "
            f"latency_tail_s = {metrics['latency_tail_s'] / scale:.6g} s")


# ---------------------------------------------------------------------------
# CLI workloads

def _cli_errors(outcome: Outcome, check) -> list[str]:
    if outcome.code is None:
        return ["timeout"]
    if outcome.code != 0:
        return [f"exit {outcome.code}: {outcome.stderr.strip()[-200:]}"]
    return check(outcome.stdout)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def run_cli(workload: str, seed: int, seconds: float, trace: bool, tmp: str,
            requests: list[list[str]] | None = None) -> dict:
    """Closed loop, one client: passes_for(workload, seconds) whole passes over
    the requests, each pass in a seeded order.  Untraced, CLI_PROBES speed
    probes precede every request, and a `zetamax --help` start every
    HELP_EVERY-th one, so the probes and the set-ups sample the whole run;
    with trace, every request is followed by a traced twin through
    launcher.py."""
    requests = requests if requests is not None else cli_requests.REQUESTS[workload]
    expected = cli_requests.load_expected(workload)
    base = [sys.executable, "-m", "zetamax.cli"]
    tally = Tally()
    csv_path = os.path.join(tmp, "out.csv")

    def one(argv_prefix, argv):
        if os.path.exists(csv_path):
            os.remove(csv_path)
        outcome = spawn(argv_prefix + cli_requests.with_csv(argv, csv_path), tmp,
                        REQUEST_TIMEOUT_S)
        errs = _cli_errors(outcome, lambda out: cli_requests.check_request(
            expected, argv, out, csv_path if "{csv}" in argv else None))
        return outcome, tally.record(argv[0], errs)

    rng = random.Random(f"{workload}:{seed}")
    launcher = [sys.executable, "-X", "importtime", os.path.join(HERE, "launcher.py")]
    traced = CliTrace() if trace else None
    latencies, ok, rss_kb, setups, probes = [], 0, 0, [], []
    for _ in range(passes_for(workload, seconds)):
        for argv in rng.sample(requests, len(requests)):
            if traced is None:
                probes += [speed.probe() for _ in range(CLI_PROBES)]
            if traced is None and len(latencies) % HELP_EVERY == 0:
                outcome = spawn(base + cli_requests.HELP, tmp, REQUEST_TIMEOUT_S)
                if _cli_errors(outcome, cli_requests.check_help):
                    raise BenchError(f"`zetamax --help` failed: {outcome.stderr[-300:]}")
                setups.append(outcome.seconds)
            outcome, good = one(base, argv)
            latencies.append(outcome.seconds)
            ok += good
            rss_kb = max(rss_kb, outcome.rss_kb)
            if traced is not None:
                # the traced twin runs right after, so both see the same machine state
                span_file = os.path.join(tmp, "spans")
                outcome, _ = one(launcher + [span_file], argv)
                traced.add(outcome, span_file)
    result = {"tally": tally, "latencies": latencies}
    if traced is None:
        scale = speed.scale(probes)
        result["metrics"] = end_to_end([t * scale for t in latencies], ok, rss_kb, setups)
        result["note"] = scaled_note(result["metrics"], scale)
    else:
        result["metrics"], result["emphasis"] = traced.metrics(latencies)
    return result


class CliTrace:
    """Per-layer sums over the traced twins of a CLI run's requests."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.imports = {"cli.import_s": [], "numpy": [], "mpmath": []}
        self.seconds = 0.0
        self.hot_s = 0.0

    def add(self, outcome: Outcome, span_file: str) -> None:
        self.seconds += outcome.seconds
        if not os.path.exists(span_file + ".import"):
            return  # the request failed before main ran; counted as failed
        with open(span_file + ".import", encoding="utf-8") as f:
            info = json.load(f)
        if not os.path.realpath(info["zetamax_file"]).startswith(SRC + os.sep):
            raise BenchError(f"zetamax imported from {info['zetamax_file']}")
        store = spans.SpanStore.load(span_file)
        spans.merge(self.raw, spans.summarize(store))
        self.hot_s += spans.covered_time(store, HOT_PREFIXES)
        times = spans.parse_importtime(outcome.stderr)
        self.imports["cli.import_s"].append(info["import_s"])
        self.imports["numpy"].append(times.get("numpy", 0.0))
        self.imports["mpmath"].append(times.get("mpmath", 0.0))
        for path in (span_file, span_file + ".json", span_file + ".import"):
            os.remove(path)

    def metrics(self, latencies: list[float]) -> tuple[dict, dict]:
        extra = {
            "cli.import_s": _median0(self.imports["cli.import_s"]),
            "cli.import_numpy_s": _median0(self.imports["numpy"]),
            "cli.import_mpmath_s": _median0(self.imports["mpmath"]),
            "trace.overhead_s": self.seconds - sum(latencies),
        }
        emphasis = {
            "cli.import_s / latency_p50_s":
                extra["cli.import_s"] / statistics.median(latencies),
            "hot spans / traced pass": self.hot_s / self.seconds,
        }
        return spans.finalize(self.raw, extra, list(LAYER_UNITS)), emphasis


def _median0(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# session workload

class SessionChild:
    """A session.py child; a watchdog kills it if it outlives the deadline."""

    def __init__(self, tmp: str, span_dir: str | None):
        argv = [sys.executable, os.path.join(HERE, "session.py")]
        if span_dir is not None:
            argv += ["--trace", span_dir]
        self._err = open(os.path.join(tmp, "session-stderr"), "wb")
        self.t0 = _clock()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._err, env=child_env(), cwd=tmp, text=True)
        self._watchdog = threading.Timer(SESSION_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def expect(self, prefix: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            with open(self._err.name, encoding="utf-8", errors="replace") as f:
                err = f.read()[-500:]
            raise BenchError(f"session child: expected {prefix!r}, got {line!r}; {err}")
        return line[len(prefix):].strip()

    def send(self, cmd: dict) -> None:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()

    def close(self) -> int:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        code = self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        self._err.close()
        return code


def run_session(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """Untraced, SESSION_SETUPS children warm up in turn, and the last runs
    the stream: one long-lived session, whose peak RSS covers every round.
    Traced, one child does both."""
    setups = []
    n_children = 1 if trace else SESSION_SETUPS
    for i in range(n_children):
        child = SessionChild(tmp, tmp if trace else None)
        try:
            child.expect("READY")
            setups.append(_clock() - child.t0)
            if i < n_children - 1:
                child.send({"cmd": "exit"})
            else:
                child.send({"cmd": "run", "seed": seed,
                            "rounds": max(2, round(seconds / SESSION_ROUND_S))})
                doc = json.loads(child.expect("RESULT"))
        finally:
            code = child.close()
        if code != 0:
            raise BenchError(f"session child exited with {code}")

    scale = speed.scale(doc["probes"])
    latencies = [t * scale for t in doc["latencies"]]
    tally = Tally()
    tally.attempted, tally.failed = doc["calls"], doc["failed"]  # traced calls too
    tally.messages = [f"session: {m}" for m in doc["failures"]]
    result = {"tally": tally, "latencies": latencies}
    if not trace:
        result["metrics"] = end_to_end(latencies, len(latencies) - doc["failed"],
                                       doc["rss_kb"], setups)
        result["note"] = scaled_note(result["metrics"], scale)
        return result

    stream = spans.SpanStore.load(os.path.join(tmp, "stream.spans"))
    setup = spans.summarize(spans.SpanStore.load(os.path.join(tmp, "setup.spans")))
    raw = spans.summarize(stream)
    extra = {f"setup.{k}": setup.get(k, 0.0) for k in (
        "dickman.build_rho_table.s", "smooth.spf_sieve.s", "dirichlet.build_character_table.s")}
    extra["trace.overhead_s"] = doc["traced_s"] - sum(doc["latencies"])
    result["metrics"] = spans.finalize(raw, extra, list(LAYER_UNITS))
    result["emphasis"] = {
        "smooth.spf_sieve.calls (timed region)": raw.get("smooth.spf_sieve.calls", 0.0),
        "dirichlet.build_character_table.calls (timed region)":
            raw.get("dirichlet.build_character_table.calls", 0.0),
        "hot spans / traced pass": spans.covered_time(stream, HOT_PREFIXES) / doc["traced_s"],
    }
    return result


# ---------------------------------------------------------------------------
# reporting

def report(workload: str, result: dict, trace: bool) -> dict:
    tally = result["tally"]
    metrics = result["metrics"]
    print(f"workload {workload}: {tally.attempted} requests, {tally.failed} failed")
    units = LAYER_UNITS if trace else E2E_UNITS
    for name, unit in units.items():
        note = f"  ({metrics['_tail_note']})" if name == "latency_tail_s" else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    if trace:
        for what, value in result.get("emphasis", {}).items():
            claim = CLAIMS.get((workload, what))
            verdict = "" if claim is None else (
                f"  (claim {claim[0]}: {'holds' if claim[1](value) else 'DOES NOT HOLD'})")
            print(f"  emphasis: {what} = {value:.4g}{verdict}")
    else:
        print(f"  {spec.FAILED_FRAC[0]} = {tally.failed / tally.attempted:.6g} "
              f"{spec.FAILED_FRAC[1]}")
    if "note" in result:
        print(f"  ({result['note']})")
    for message in tally.messages:
        print(f"  FAILED {message}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    if workload == "session-warm":
        return run_session(seed, seconds, trace, tmp)
    return run_cli(workload, seed, seconds, trace, tmp)


def describe() -> None:
    for w in BENCH["workloads"]:
        print(f"{w['name']}: {w['why']}")
    print()
    for m in BENCH["end_to_end"]:
        print(f"{m['name']} [{m['unit']}, {m['better']} is better, bound {m['bound']}]: "
              f"{spec.MEANING[m['name']]}")
    name, unit, meaning = spec.FAILED_FRAC
    print(f"{name} [{unit}, must be 0, not in BENCHMARK.json]: {meaning}")
    print()
    for m in BENCH["per_layer"]:
        print(f"{m['name']} [{m['unit']}] -> {spec.MOVES[m['name']]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print why each workload exists and what each metric should move")
    args = ap.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "zetamax", "cli.py")):
        sys.stderr.write(f"perfbench: no zetamax source under {SRC}\n")
        return 2

    print(f"machine {json.dumps(machine_facts())}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        lines = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), tmp)
            lines.append(report(workload, result, bool(args.trace)))
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
