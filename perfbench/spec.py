"""What each metric of BENCHMARK.json means and what should move it: the
layer -> metric -> workload table that later changes cite by name.

Names, units, bounds, the workloads with their reasons and the run length
live in BENCHMARK.json alone; `load()` reads it.
"""

from __future__ import annotations

import json
import os

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def load() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


# end-to-end metric -> meaning.  The time bounds in BENCHMARK.json are wide
# because on the 2-vCPU Intel Xeon VM the benchmark was tuned on, pure-Python
# code ran up to ~1.5x slower for minutes at a time (a fixed interpreter loop
# took 0.45-0.73 s), so request times are scaled by a probe of that speed
# (speed.py).  setup_s is reported as measured and keeps the largest bound,
# so work moved into set-up still shows.
MEANING = {
    "ops_per_s": (
        "requests completed per second of request time; closed loop, one client.  "
        "Request times (here and in the two latencies) are scaled to a reference "
        "machine speed by a pure-Python probe timed between requests, by the "
        "benchmark for a CLI request and inside the session for a session call; "
        "the figures as measured are printed beside them"),
    "latency_p50_s": "median request wall time; a CLI request runs from spawn to exit",
    "latency_tail_s": (
        "highest percentile with at least 10 samples beyond it, never below the "
        "median (percentile and sample count are printed with it).  A cli-heavy "
        "run has 13 samples, so there it is the median, and a change to the "
        "slowest cli-heavy requests cannot show in it"),
    "peak_rss_mb": (
        "largest peak RSS (MiB) of any request's process: CLI children from "
        "wait4 rusage, the session child from its own rusage"),
    "setup_s": (
        "median of several set-ups: CLI, a fresh `zetamax --help` before every "
        "third request, so they are spread over the run; session, child start "
        "until its caches are warm"),
}

# Printed with every result but not listed in BENCHMARK.json: it reads 0 on a
# correct run, and the result line already carries `attempted` and `failed`.
FAILED_FRAC = ("failed_frac", "ratio",
               "failed / attempted requests; nonzero exit, timeout or wrong output")

# per-layer metric -> what it should move.  Layers are zetamax's modules;
# `cli` includes the package import.  `.s` is inclusive seconds and `.self_s`
# self seconds, summed over the traced pass; cli.import* are the median over
# the traced processes of one start's import time.
MOVES = {
    "cli.import_s":
     "setup_s and latency_p50_s on cli-startup; 0 on session-warm (import is set-up)",
    "cli.import_numpy_s": "same as cli.import_s",
    "cli.import_mpmath_s": "same as cli.import_s",
    "cli.main.self_s":
     "latency_p50_s on cli-startup (argparse, JSON/CSV emission); 0 on session-warm",
    "dickman.build_rho_table.calls":
     "latency_p50_s on cli-startup; setup_s and latency_p50_s on session-warm",
    "dickman.build_rho_table.s": "same as dickman.build_rho_table.calls",
    "dickman.build_rho_table.degree_escalations":
     "same as dickman.build_rho_table.calls",
    "dickman.rho.calls": "latency_p50_s on session-warm",
    "dickman.rho.s": "latency_p50_s on session-warm",
    "dickman.laplace_lhs.s": "latency_p50_s on session-warm",
    "dickman.self_s": "sum of dickman self time",
    "moments.y_exact.s":
     "ops_per_s on cli-heavy (moments --ell 200); session-warm latency",
    "moments.y_quadrature.s": "session-warm latency",
    "moments.self_s": "sum of moments self time",
    "primes.sieve_primes.calls":
     "latency_p50_s on session-warm (called on every psi and twisted-sum call)",
    "primes.sieve_primes.s": "same as primes.sieve_primes.calls",
    "primes.self_s": "sum of primes self time",
    "smooth.spf_sieve.calls":
     "ops_per_s and peak_rss_mb on cli-heavy, setup_s on session-warm; predicted "
     "no change on session-warm ops_per_s or on cli-startup (0 in session-warm's "
     "timed region)",
    "smooth.spf_sieve.s": "same as smooth.spf_sieve.calls",
    "smooth.spf_sieve.bytes_computed": "same as smooth.spf_sieve.calls",
    "smooth.iter_smooth.nodes":
     "ops_per_s on cli-heavy (psi 1e10, error-profile); latency_p50_s on session-warm",
    "smooth.iter_smooth.s":
     "same as smooth.iter_smooth.nodes; time spent inside next() only",
    "sums.neumaier_add.calls": "same as smooth.iter_smooth.nodes",
    "smooth.psi_count.s": "same as smooth.iter_smooth.nodes",
    "smooth.smooth_twisted_sum.s": "same as smooth.iter_smooth.nodes",
    "smooth.full_twisted_sum.s": "same as smooth.iter_smooth.nodes",
    "smooth.approximation_error_profile.s":
     "same as smooth.iter_smooth.nodes",
    "smooth.self_s": "sum of smooth self time",
    "zeta.zeta_derivative_truncated.calls":
     "ops_per_s, latency_tail_s and peak_rss_mb on cli-heavy; latency_tail_s on "
     "session-warm",
    "zeta.zeta_derivative_truncated.s":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.zeta_derivative_truncated.terms":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.zeta_derivative_reference.s":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.zeta_derivative_reference.cutoff_M":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.zeta_derivative_reference.doublings":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.scan_max.s": "same as zeta.zeta_derivative_truncated.calls",
    "zeta.scan_max.term_evals":
     "same as zeta.zeta_derivative_truncated.calls",
    "zeta.scan_to_csv.s": "same as zeta.zeta_derivative_truncated.calls",
    "zeta.scan.useful_frac":
     "scan_max term evals / all scan term evals (0.5 with --csv-out today; 0 when "
     "nothing is scanned); same as zeta.zeta_derivative_truncated.calls",
    "zeta.self_s": "sum of zeta self time",
    "resonator.ratio_factorized.s":
     "ops_per_s and latency_tail_s on cli-heavy; session-warm latency",
    "resonator.ratio_factorized.w_times_b":
     "same as resonator.ratio_factorized.s",
    "resonator.ratio_direct.s": "same as resonator.ratio_factorized.s",
    "resonator.proof_bookkeeping.s": "same as resonator.ratio_factorized.s",
    "resonator.divisors_up_to.count": "same as resonator.ratio_factorized.s",
    "resonator.log_power_sum.s": "same as resonator.ratio_factorized.s",
    "resonator.self_s": "sum of resonator self time",
    "dirichlet.build_character_table.calls":
     "ops_per_s on cli-heavy, setup_s on session-warm; predicted no change on "
     "session-warm ops_per_s (0 in session-warm's timed region)",
    "dirichlet.build_character_table.s":
     "same as dirichlet.build_character_table.calls",
    "dirichlet.shared_character_table.hit_frac":
     "calls served without a build / all calls (0 when never called)",
    "dirichlet.max_over_characters.s": "ops_per_s on cli-heavy",
    "dirichlet.max_over_characters.fft_len": "ops_per_s on cli-heavy",
    "dirichlet.l_derivative_truncated.s": "ops_per_s on cli-heavy",
    "dirichlet.l_derivative_truncated.terms": "ops_per_s on cli-heavy",
    "dirichlet.resonance_quotient.s": "ops_per_s on cli-heavy",
    "dirichlet.resonance_quotient.pair_checks":
     "ops_per_s on cli-heavy (support_size squared)",
    "dirichlet.moduli_to_csv.s": "ops_per_s on cli-heavy",
    "dirichlet.self_s": "sum of dirichlet self time",
    "setup.dickman.build_rho_table.s":
     "setup_s on session-warm (warm-up spans; 0 on the CLI workloads)",
    "setup.smooth.spf_sieve.s": "setup_s on session-warm",
    "setup.dirichlet.build_character_table.s": "setup_s on session-warm",
    "trace.overhead_s":
     "traced pass time minus untraced pass time of the same requests",
}
