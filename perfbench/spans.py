"""Span recording around zetamax's public functions, from outside the library.

`install(store)` replaces each target function with a wrapper that records a
span (name, start, end, parent) in `store`, and rebinds every module-level
name the function is imported under in any loaded zetamax module, so a call
through `smooth.rho` is caught as well as one through `dickman.rho`.
`Installed.undo()` puts the originals back.  Work counts are derived from each
call's arguments and result; no code inside the library changes.

`iter_smooth` is a generator: its wrapper returns an iterator that times only
what is spent inside `next()`.  Each generator is one span that starts at its
first `next()` and is as long as the time spent inside all of them; the
consumer's work between nodes is left to the caller's self time.
`NeumaierSum.add` is counted, not timed.

Spans stay in memory until `SpanStore.dump` writes them out at exit;
`summarize` turns a store into the per-layer sums that `finalize` maps onto
the per-layer metric names of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class SpanStore:
    """Spans as parallel arrays; span ids are indices, parent -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[int, dict] = {}   # span id -> {count name: value}
        self.tallies: dict[str, float] = defaultdict(float)  # counts without spans
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(_clock())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = _clock()
        self._stack.pop()

    def open(self, nid: int) -> int:
        """A zero-length span under the current one, grown by `extend`."""
        sid = len(self.name)
        t = _clock()
        for arr, value in ((self.name, nid), (self.parent, self._stack[-1]),
                           (self.start, t), (self.end, t)):
            arr.append(value)
        return sid

    def extend(self, sid: int, fn):
        """Call fn() as part of span sid: spans it opens nest under sid, and
        sid grows by the time fn takes."""
        self._stack.append(sid)
        t0 = _clock()
        try:
            return fn()
        finally:
            self.end[sid] += _clock() - t0
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            counts: dict | None = None) -> int:
        """Record a finished span directly (used by tests and hand-built traces)."""
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        if counts:
            self.counts[sid] = dict(counts)
        return sid

    def dump(self, path: str) -> None:
        """Write the spans: `path` gets the arrays, `path + '.json'` the rest."""
        with open(path, "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        doc = {"n": len(self.name), "names": self.names,
               "counts": {str(k): v for k, v in self.counts.items()},
               "tallies": dict(self.tallies)}
        with open(path + ".json", "w", encoding="utf-8") as f:
            json.dump(doc, f)

    @classmethod
    def load(cls, path: str) -> "SpanStore":
        with open(path + ".json", encoding="utf-8") as f:
            doc = json.load(f)
        store = cls()
        for name in doc["names"]:
            store.name_id(name)
        n = doc["n"]
        with open(path, "rb") as f:
            store.name.fromfile(f, n)
            store.parent.fromfile(f, n)
            store.start.fromfile(f, n)
            store.end.fromfile(f, n)
        store.counts = {int(k): v for k, v in doc["counts"].items()}
        store.tallies.update(doc["tallies"])
        return store


# ---------------------------------------------------------------------------
# self time

def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(store: SpanStore) -> dict[int, list[int]]:
    kids = defaultdict(list)
    for sid, p in enumerate(store.parent):
        if p >= 0:
            kids[p].append(sid)
    return kids


def self_times(store: SpanStore) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids = children_of(store)
    out = []
    for sid in range(len(store.name)):
        lo, hi = store.start[sid], store.end[sid]
        covered = _union_length(
            (max(store.start[c], lo), min(store.end[c], hi)) for c in kids.get(sid, ()))
        out.append((hi - lo) - covered)
    return out


def covered_time(store: SpanStore, prefixes: tuple[str, ...]) -> float:
    """Wall time covered by the union of spans whose name starts with a prefix."""
    ids = {i for i, n in enumerate(store.names) if n.startswith(prefixes)}
    return _union_length((store.start[s], store.end[s])
                         for s, nid in enumerate(store.name) if nid in ids)


# ---------------------------------------------------------------------------
# wrapping

def _getter(fn, name: str):
    """Fetch argument `name` of a call to fn from (args, kwargs)."""
    params = inspect.signature(fn).parameters
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default
    return get


def _counts_build_rho_table(fn):
    return lambda a, k, r: {"degree_escalations": (r.degree - 16) // 8}


def _counts_spf_sieve(fn):
    return lambda a, k, r: {"bytes_computed": int(r.nbytes)}


def _counts_terms_N(fn):
    get_n = _getter(fn, "N")
    return lambda a, k, r: {"terms": int(get_n(a, k))}


def _counts_reference(fn):
    get_sigma, get_t = _getter(fn, "sigma"), _getter(fn, "t")

    def counts(a, k, r):
        # zeta_derivative_reference starts at M0 = max(ceil(2|s|), 50) and doubles
        m0 = max(int(math.ceil(2 * abs(complex(get_sigma(a, k), get_t(a, k))))), 50)
        return {"cutoff_M": r.truncation,
                "doublings": round(math.log2(r.truncation / m0))}
    return counts


def _counts_scan_max(fn):
    return lambda a, k, r: {"term_evals": r.grid_size * r.N}


def _counts_scan_to_csv(fn):
    get_n = _getter(fn, "N")
    return lambda a, k, r: {"term_evals": (r.count("\n") - 1) * int(get_n(a, k))}


def _counts_factorized(fn):
    get_spec = _getter(fn, "spec")

    def counts(a, k, r):
        spec = get_spec(a, k)
        return {"w_times_b": spec.w * spec.b}
    return counts


def _counts_divisors(fn):
    return lambda a, k, r: {"count": len(r)}


def _counts_max_chars(fn):
    return lambda a, k, r: {"fft_len": len(r.all_moduli) + 1}


def _counts_quotient(fn):
    return lambda a, k, r: {"pair_checks": r.support_size ** 2}


GENERATOR = "generator"

# module -> {function: count factory, None or GENERATOR}
TARGETS = {
    "dickman": {"build_rho_table": _counts_build_rho_table, "rho": None,
                "laplace_lhs": None, "laplace_rhs": None},
    "moments": {"y_exact": None, "y_quadrature": None},
    "primes": {"sieve_primes": None},
    "smooth": {"spf_sieve": _counts_spf_sieve, "iter_smooth": GENERATOR,
               "psi_count": None, "smooth_twisted_sum": None, "full_twisted_sum": None,
               "nonsmooth_twisted_sum": None, "approximation_error_profile": None},
    "zeta": {"zeta_derivative_truncated": _counts_terms_N,
             "zeta_derivative_reference": _counts_reference,
             "scan_max": _counts_scan_max, "scan_to_csv": _counts_scan_to_csv},
    "resonator": {"ratio_factorized": _counts_factorized, "ratio_direct": None,
                  "proof_bookkeeping": None, "divisors_up_to": _counts_divisors,
                  "log_power_sum": None},
    "dirichlet": {"build_character_table": None, "shared_character_table": None,
                  "max_over_characters": _counts_max_chars,
                  "l_derivative_truncated": _counts_terms_N,
                  "resonance_quotient": _counts_quotient, "moduli_to_csv": None},
}


def _wrap_function(store: SpanStore, name: str, fn, count_factory):
    nid = store.name_id(name)
    counts_of = count_factory(fn) if count_factory else None

    def wrapper(*args, **kwargs):
        sid = store.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            store.finish(sid)
        if counts_of is not None:
            store.counts[sid] = counts_of(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


class _TracedIterator:
    __slots__ = ("_next", "_store", "_nid", "_nodes", "_sid")

    def __init__(self, it, store: SpanStore, nid: int, nodes_key: str):
        self._next, self._store, self._nid, self._nodes = it.__next__, store, nid, nodes_key
        self._sid = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._sid is None:
            self._sid = self._store.open(self._nid)
        value = self._store.extend(self._sid, self._next)
        self._store.tallies[self._nodes] += 1
        return value


def _wrap_generator(store: SpanStore, name: str, fn):
    nid = store.name_id(name)
    calls_key, nodes_key = name + ".calls", name + ".nodes"

    def wrapper(*args, **kwargs):
        store.tallies[calls_key] += 1
        return _TracedIterator(fn(*args, **kwargs), store, nid, nodes_key)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


class Installed:
    """The rebindings made by install(); undo() restores every original."""

    def __init__(self):
        self._undo: list[tuple] = []

    def undo(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def install(store: SpanStore) -> Installed:
    """Wrap every target function of the loaded zetamax package."""
    done = Installed()
    replacement = {}
    for mod_name, funcs in TARGETS.items():
        mod = importlib.import_module(f"zetamax.{mod_name}")
        for fname, factory in funcs.items():
            fn = getattr(mod, fname)
            name = f"{mod_name}.{fname}"
            if factory is GENERATOR:
                replacement[id(fn)] = (fn, _wrap_generator(store, name, fn))
            else:
                replacement[id(fn)] = (fn, _wrap_function(store, name, fn, factory))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zetamax" or mod_name.startswith("zetamax.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                done._undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    sums = importlib.import_module("zetamax.sums")
    add = sums.NeumaierSum.add
    tallies = store.tallies

    def counted_add(self, x):
        tallies["sums.neumaier_add.calls"] += 1
        return add(self, x)

    done._undo.append((sums.NeumaierSum, "add", add))
    sums.NeumaierSum.add = counted_add
    return done


# ---------------------------------------------------------------------------
# aggregation

def summarize(store: SpanStore) -> dict[str, float]:
    """Per-function and per-layer sums of one store (additive across stores)."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(store)
    kids = children_of(store)
    build_id = store._ids.get("dirichlet.build_character_table")
    for sid, nid in enumerate(store.name):
        name = store.names[nid]
        dur = store.end[sid] - store.start[sid]
        out[name + ".s"] += dur
        out[name + ".self_s"] += selfs[sid]
        out[name.split(".")[0] + ".self_s"] += selfs[sid]
        if name != "smooth.iter_smooth":  # generators are tallied when created
            out[name + ".calls"] += 1
        for key, value in store.counts.get(sid, {}).items():
            out[f"{name}.{key}"] += value
        if name == "dirichlet.shared_character_table":
            built = any(store.name[c] == build_id for c in kids.get(sid, ()))
            out["dirichlet.shared_character_table.hits"] += 0 if built else 1
    for key, value in store.tallies.items():
        out[key] += value
    return dict(out)


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def finalize(raw: dict[str, float], extra: dict[str, float],
             names: list[str]) -> dict[str, float]:
    """Map summed raw values (plus import and overhead figures in `extra`)
    onto every metric in `names`."""
    scan_all = raw.get("zeta.scan_max.term_evals", 0.0) + raw.get(
        "zeta.scan_to_csv.term_evals", 0.0)
    shared = raw.get("dirichlet.shared_character_table.calls", 0.0)
    derived = {
        "zeta.scan.useful_frac":
            raw.get("zeta.scan_max.term_evals", 0.0) / scan_all if scan_all else 0.0,
        "dirichlet.shared_character_table.hit_frac":
            raw.get("dirichlet.shared_character_table.hits", 0.0) / shared if shared else 0.0,
    }
    out = {}
    for name in names:
        if name in extra:
            out[name] = float(extra[name])
        elif name in derived:
            out[name] = float(derived[name])
        else:
            out[name] = float(raw.get(name, 0.0))
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime` stderr."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:  # the header line
            continue
        out.setdefault(parts[2].strip(), cumulative_us / 1e6)
    return out
