"""Child process of the session-warm workload.

Usage: python perfbench/session.py [--trace SPAN_DIR]

Imports zetamax, warms its shared caches through public calls, prints
`READY` and waits for one JSON command on stdin:

  {"cmd": "exit"}
  {"cmd": "run", "seed": S, "rounds": R}

`run` draws one pass of mid-size library calls from the seed and runs it R
times, each round in another seeded order, timing every call and, between
calls, a machine speed probe (speed.probe, every PROBE_EVERY calls).  It then
reads its own peak RSS, checks each op's first result against an
independent route and every later result against the first (outside the
timed region), and prints one `RESULT {...}` line.  With
--trace, the warm-up is traced into SPAN_DIR/setup.spans, and each round is
replayed with spans right after it runs untraced; the replays' spans go to
SPAN_DIR/stream.spans.

Every call goes through a module attribute looked up at call time, so the
span wrappers see it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import speed
import zetamax
from zetamax import dickman, dirichlet, moments, resonator, smooth, zeta

_clock = time.perf_counter
EPS = 2.0 ** -53
Q_BIG, Q_SMALL = 1000003, 99991
QS = (Q_SMALL, Q_BIG)
LEMMA_WINDOW = 6.28  # zeta.in_lemma_window: N <= t <= 6.28 N

SPECS = [(3, 2), (3, 8), (3, 40), (5, 3), (5, 6), (5, 12), (7, 2), (7, 4), (7, 6),
         (11, 2), (11, 3), (11, 4)]


class Ctx:
    """Objects built during warm-up and reused by the stream."""

    def __init__(self):
        self.table60 = None


class Op(NamedTuple):
    call: Callable[[], object]        # the timed library call; returns a plain value
    check: Callable[[object], list]   # mismatch messages against another route


def warm_up(ctx: Ctx) -> None:
    ctx.table60 = zetamax.build_rho_table(60.0, 1e-12)
    zetamax.psi_count(1e7, 1000)  # grows the shared sieve to 1e7
    dirichlet.shared_character_table(Q_BIG)
    dirichlet.shared_character_table(Q_SMALL)


def _log_x(u: float, lo: float, hi: float) -> int:
    return int(math.floor(10 ** (lo + (hi - lo) * u)))


def _pick(seq, u: float):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


# ---------------------------------------------------------------------------
# op kinds: make(ctx, u) -> Op, for a point u of the unit cube

def _psi_enum(ctx, u):
    y = _pick((5, 7, 13, 29, 71), u[1])
    x = _log_x(u[0], 4, 7)

    def call():
        return smooth.psi_count(float(x), y).exact_count

    def check(count):
        # sieve route: everything up to x minus the counted non-smooth n >= 2
        non = smooth.nonsmooth_twisted_sum(x, y, smooth.Trivial()).real
        return [] if count == x - int(non) else [f"psi({x},{y}) {count} vs sieve {x - non}"]
    return Op(call, check)


def _psi_sieve(ctx, u):
    y = _pick((100, 1000, 10000), u[1])
    x = _log_x(u[0], 4, 7)

    def call():
        return smooth.psi_count(float(x), y).exact_count

    def check(count):
        want = _psi_by_division(x, y)
        return [] if count == want else [f"psi({x},{y}) {count} vs division {want}"]
    return Op(call, check)


def _psi_by_division(x: int, y: int) -> int:
    """Psi(x, y) by dividing every n <= x by each prime power p^k <= x, p <= y."""
    rest = np.arange(1, x + 1, dtype=np.int32)
    for p in _primes_upto(y):
        pk = p
        while pk <= x:
            rest[pk - 1::pk] //= p
            pk *= p
    return int(np.count_nonzero(rest == 1))


def _primes_upto(n: int) -> list[int]:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return [int(p) for p in np.flatnonzero(flags)]


def _full_minus_nonsmooth(x, y, twist):
    return smooth.full_twisted_sum(x, twist) - smooth.nonsmooth_twisted_sum(x, y, twist)


def _twisted_unimodular(ctx, u):
    y = _pick((7, 13, 100, 1000), u[1])
    x = _log_x(u[0], 3, 6)
    t = 10 ** (1 + 5 * u[2])
    # per term: phase t*log n rounds to <= 2 eps t log x on each route, exp and
    # the chunked compensated sums add a few dozen eps
    tol = x * EPS * (4 * t * math.log(x) + 64)

    def call():
        return smooth.smooth_twisted_sum(x, y, smooth.Unimodular(t))

    def check(value):
        other = _full_minus_nonsmooth(x, y, smooth.Unimodular(t))
        return [] if abs(value - other) <= tol else [
            f"twisted unimodular ({x},{y},{t}) {value} vs full-nonsmooth {other}"]
    return Op(call, check)


def _twisted_character(ctx, u):
    # q = 99991: with the 1e6 modulus every full-sum check costs a whole period
    q, y = Q_SMALL, _pick((7, 13, 100, 1000), u[1])
    x = _log_x(u[0], 3, 6)
    j = 1 + int(u[2] * (q - 2))
    tol = 128 * EPS * x  # exact exponents; only exp and summation round

    def call():
        table = dirichlet.shared_character_table(q)
        return smooth.smooth_twisted_sum(x, y, smooth.Character(table, j))

    def check(value):
        twist = smooth.Character(dirichlet.shared_character_table(q), j)
        other = _full_minus_nonsmooth(x, y, twist)
        return [] if abs(value - other) <= tol else [
            f"twisted character ({x},{y},q={q},j={j}) {value} vs full-nonsmooth {other}"]
    return Op(call, check)


def _l_sum_tol(ell: int, N: int, q: int) -> float:
    # both routes sum N terms of size (log k)^ell / k; the FFT adds log2(q) roundings
    mass = math.log(N) ** (ell + 1) / (ell + 1) + 1.0
    return 1e-12 + 64 * EPS * math.log2(q) * mass


def _l_derivative(ctx, u):
    N = _pick((10**3, 10**4, 10**5, 10**6), u[0])
    q, ell = _pick([(q, ell) for ell in range(3) for q in QS], u[1])
    j = 1 + int(u[2] * (q - 2))

    def call():
        table = dirichlet.shared_character_table(q)
        return dirichlet.l_derivative_truncated(ell, table, j, N).value

    def check(value):
        fft = float(dirichlet.max_over_characters(ell, q, N).all_moduli[j - 1])
        return [] if abs(abs(value) - fft) <= _l_sum_tol(ell, N, q) else [
            f"l_derivative (ell={ell},q={q},j={j},N={N}) |{value}| vs fft {fft}"]
    return Op(call, check)


def _l_max(ctx, u):
    # q = 99991: a 1e6-point FFT per call would dominate the whole stream
    N, q, ell = _log_x(u[0], 3, 6), Q_SMALL, _pick(range(3), u[1])

    def call():
        r = dirichlet.max_over_characters(ell, q, N)
        return r.j_star, r.modulus

    def check(value):
        j_star, modulus = value
        table = dirichlet.shared_character_table(q)
        direct = abs(dirichlet.l_derivative_truncated(ell, table, j_star, N).value)
        return [] if abs(direct - modulus) <= _l_sum_tol(ell, N, q) else [
            f"l_max (ell={ell},q={q},N={N}) {modulus} vs direct {direct}"]
    return Op(call, check)


def _zeta_truncated(ctx, u):
    N = _log_x(u[0], 3, 6)
    ell = _pick(range(3), u[1])
    t = N * (1 + (LEMMA_WINDOW - 1) * u[2])
    mass = math.log(N) ** (ell + 1) / (ell + 1) + 1.0
    # scan_max reduces phases in float64 (error <= 2 eps t log N per term)
    tol = mass * EPS * (4 * t * math.log(N) + 64)

    def call():
        return zeta.zeta_derivative_truncated(ell, 1.0, t, N).value

    def check(value):
        other = zeta.scan_max(ell, t, t, 1.0, N).value_modulus
        return [] if abs(abs(value) - other) <= tol else [
            f"zeta (ell={ell},t={t},N={N}) |{value}| vs scan {other}"]
    return Op(call, check)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _integrate_rho(table, lo: float, hi: float, ell: int = 0) -> float:
    """int_lo^hi u^ell rho(u) du by Gauss-Legendre on pieces split at integers,
    evaluating the table's Chebyshev coefficients (DickmanTable.intervals)
    directly rather than through dickman.rho.  Each piece is a polynomial of
    degree <= 40 (times u^ell), so 24 nodes integrate it to rounding."""
    pieces = []
    cuts = [lo] + [float(k) for k in range(math.floor(lo) + 1, math.ceil(hi))] + [hi]
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        k = min(math.floor(a), len(table.intervals) - 1)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        us = mid + half * _GL_X
        vals = np.polynomial.chebyshev.chebval(2.0 * (us - k) - 1.0, table.intervals[k])
        pieces.append(half * float(np.dot(_GL_W, vals * us ** ell)))
    return math.fsum(pieces)


def _rho_batch(ctx, u):
    us = [60.0 * (k + u[0]) / 32 for k in range(32)]
    table = ctx.table60

    def call():
        return [dickman.rho(v, table) for v in us]

    def check(values):
        errs = []
        for v, r in zip(us, values):
            if v <= 1.0:
                ok = r == 1.0
            else:
                # u rho(u) = int_{u-1}^{u} rho; a table within tol of rho keeps
                # the identity to (u + 1) tol
                lhs, rhs = v * r, _integrate_rho(table, v - 1.0, v)
                ok = abs(lhs - rhs) <= (v + 1.0) * table.tol + 1e-14
            if not ok:
                errs.append(f"rho({v}) = {r} breaks u rho(u) = int rho")
        return errs
    return Op(call, check)


def _laplace(ctx, u):
    s = 8.0 * u[0]
    table = ctx.table60

    def call():
        return dickman.laplace_lhs(s, table, 1e-10)

    def check(lhs):
        rhs = dickman.laplace_rhs(s, 1e-12)
        return [] if abs(lhs - rhs) <= 1e-9 else [f"laplace({s}) {lhs} vs closed form {rhs}"]
    return Op(call, check)


def _y_quadrature(ctx, u):
    ell = _pick(range(11), u[0])
    table = ctx.table60

    def call():
        return moments.y_quadrature(ell, table, 1e-9).float_value

    def check(value):
        exact = moments.y_exact(ell).float_value
        return [] if abs(value - exact) <= 1e-8 else [f"Y_{ell} {value} vs exact {exact}"]
    return Op(call, check)


def _ratio(method: str, other: str):
    def make(ctx, u):
        y, b = _pick(SPECS, u[1])
        ell = _pick(range(5), u[0])

        def call():
            return getattr(resonator, method)(resonator.make_spec(y, b), ell)

        def check(value):
            ref = getattr(resonator, other)(resonator.make_spec(y, b), ell)
            return [] if abs(value - ref) <= 1e-10 * max(1.0, abs(ref)) else [
                f"{method}(y={y},b={b},ell={ell}) {value} vs {other} {ref}"]
        return Op(call, check)
    return make


def _proof_bookkeeping(ctx, u):
    ell = _pick(range(7), u[1])
    log_T = 10 ** (4 + 4 * u[0]) * math.log(10.0)
    table = ctx.table60

    def call():
        return resonator.proof_bookkeeping(ell, table, log_T=log_T)

    def check(r):
        errs = []
        n = math.floor(r.y)
        s1 = math.fsum(math.log(k) ** ell / k for k in range(1, n + 1))
        if not math.isclose(r.S1, s1, rel_tol=1e-12):
            errs.append(f"bookkeeping S1 {r.S1} vs {s1}")
        y_q = moments.y_quadrature(ell, table, 1e-9).float_value
        scale = r.log2_T ** (ell + 1)
        if abs(r.predicted - y_q * scale) > 1e-8 * scale:
            errs.append(f"bookkeeping predicted {r.predicted} vs quadrature {y_q * scale}")
        log_y, log_r = math.log(r.y), r.log2_T * r.log3_T
        hi = min(r.u_R, table.max_u)
        i_ell = _integrate_rho(table, 1.0, hi, ell)
        terms = [log_r ** ell * dickman.rho(hi, table) if r.u_R <= table.max_u else 0.0,
                 -log_y ** ell, log_y ** (ell + 1) * i_ell]
        if ell > 0:
            terms.append(-ell * log_y ** ell * _integrate_rho(table, 1.0, hi, ell - 1))
        s2 = math.fsum(terms)
        if abs(r.S2 - s2) > 1e-9 * math.fsum(abs(v) for v in terms):
            errs.append(f"bookkeeping S2 {r.S2} vs {s2}")
        return errs
    return Op(call, check)


# kind -> (factory, cells per coordinate of u).  A pass runs every kind once
# per cell, at a seeded point within JITTER / 2 cell widths of the cell's
# centre: the seed moves every continuous input and sets the order, while
# each seed does the same work to within a few percent.  Points drawn across
# whole cells would make the cost of a pass differ by 0.14 IQR/median between
# seeds, because a few large psi_enum calls dominate it.  A coordinate that
# picks from a list has one cell per entry.
KINDS = {
    "psi_enum": (_psi_enum, (16, 5, 1)),
    "psi_sieve": (_psi_sieve, (8, 3, 1)),
    "twisted_unimodular": (_twisted_unimodular, (4, 4, 2)),
    "twisted_character": (_twisted_character, (4, 4, 1)),
    "l_derivative": (_l_derivative, (4, 6, 1)),
    "l_max": (_l_max, (4, 3, 1)),
    "zeta_truncated": (_zeta_truncated, (6, 3, 1)),
    "rho_batch": (_rho_batch, (8, 1, 1)),
    "laplace": (_laplace, (8, 1, 1)),
    "y_quadrature": (_y_quadrature, (11, 1, 1)),
    "ratio_direct": (_ratio("ratio_direct", "ratio_factorized"), (1, 12, 1)),
    "ratio_factorized": (_ratio("ratio_factorized", "ratio_direct"), (1, 12, 1)),
    "proof_bookkeeping": (_proof_bookkeeping, (4, 7, 1)),
}


def make_op(ctx: Ctx, kind: str, u: tuple) -> Op:
    return KINDS[kind][0](ctx, u)


JITTER = 0.2


def one_pass(rng: random.Random) -> list[tuple[str, tuple]]:
    """(kind, u) for one cell of every kind, at a seeded point of the cell."""
    ops = []
    for kind, (_, grid) in KINDS.items():
        for cell in itertools.product(*(range(g) for g in grid)):
            ops.append((kind, tuple((i + 0.5 + JITTER * (rng.random() - 0.5)) / g
                                    for i, g in zip(cell, grid))))
    return ops


PROBE_EVERY = 20  # calls of an untraced round between two speed.probe() timings


def _timed(order, made, probes: list | None = None):
    """Run made[i].call() for i in order; return per-call (i, seconds, value,
    error).  With `probes`, append a speed.probe() time every PROBE_EVERY calls."""
    out = []
    for n, i in enumerate(order):
        if probes is not None and n % PROBE_EVERY == 0:
            probes.append(speed.probe())
        call = made[i].call
        t0 = _clock()
        try:
            value, err = call(), None
        except Exception as e:  # a failed call counts toward failed_frac
            value, err = None, f"{type(e).__name__}: {e}"
        out.append((i, _clock() - t0, value, err))
    return out


def run(ctx: Ctx, seed: int, n_rounds: int, span_dir: str | None) -> dict:
    store = None
    if span_dir is not None:
        from spans import SpanStore, install
        store = SpanStore()
    rng = random.Random(f"session-warm:{seed}")
    ops = one_pass(rng)
    made = [make_op(ctx, kind, u) for kind, u in ops]
    latencies, probes = [], []
    calls: list[list] = [[] for _ in ops]  # per op: (value, error) of every call
    traced_s = 0.0
    for _ in range(n_rounds):
        order = rng.sample(range(len(ops)), len(ops))
        for i, seconds, value, err in _timed(order, made, probes):
            latencies.append(seconds)
            calls[i].append((value, err))
        if store is not None:
            # the traced replay of each round runs right after it, so both see
            # the same machine state
            installed = install(store)
            try:
                for i, seconds, value, err in _timed(order, made):
                    traced_s += seconds
                    calls[i].append((value, err))
            finally:
                installed.undo()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if store is not None:
        store.dump(os.path.join(span_dir, "stream.spans"))

    failures, failed_calls = [], 0
    for i in range(len(ops)):
        kind, (first, err) = ops[i][0], calls[i][0]
        wrong = [err] if err else made[i].check(first)
        messages = [err or f"result {value!r} differs from the first call's {first!r}"
                    for value, err in calls[i]
                    if wrong or err or repr(value) != repr(first)]
        if messages:
            failed_calls += len(messages)
            failures.append(f"{kind}: {(wrong or messages)[0]}")
    doc = {"latencies": latencies, "probes": probes, "calls": sum(map(len, calls)),
           "failed": failed_calls, "failures": failures[:5], "rss_kb": rss_kb}
    if store is not None:
        doc["traced_s"] = traced_s
    return doc


def main(argv: list[str]) -> int:
    span_dir = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
    if not os.path.realpath(zetamax.__file__).startswith(src + os.sep):
        sys.stderr.write(f"zetamax imported from {zetamax.__file__}, not {src}\n")
        return 2
    ctx = Ctx()
    if span_dir is not None:
        from spans import SpanStore, install
        store = SpanStore()
        installed = install(store)
        try:
            warm_up(ctx)
        finally:
            installed.undo()
        store.dump(os.path.join(span_dir, "setup.spans"))
    else:
        warm_up(ctx)
    print("READY", flush=True)
    cmd = json.loads(sys.stdin.readline() or '{"cmd": "exit"}')
    if cmd["cmd"] != "run":
        return 0
    doc = run(ctx, int(cmd["seed"]), int(cmd["rounds"]), span_dir)
    print("RESULT " + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
