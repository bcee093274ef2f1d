"""Block walks (`sums.spans`): each range covered once, and outputs that
do not depend on the block length.  Block sums evaluated two blocks at a
time (`sums.ordered_map`): results in block order, at most two blocks in
flight, small sums inline, and every routed sum bit-identical to a serial
pass."""

import concurrent.futures
import io
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetamax import dirichlet, smooth, sums, zeta
from zetamax.smooth import Character, Trivial, Unimodular


@pytest.mark.parametrize("first, last, length", [
    (0, 0, 1), (1, 10, 3), (2, 9, 4), (0, 99, 100), (0, 99, 1000), (5, 4, 2)])
def test_spans_cover_the_range_once_and_only_the_last_is_short(first, last, length):
    bounds = list(sums.spans(first, last, length))
    assert [n for lo, hi in bounds for n in range(lo, hi)] == list(range(first, last + 1))
    assert all(hi - lo == length for lo, hi in bounds[:-1])
    assert all(0 < hi - lo <= length for lo, hi in bounds[-1:])


def test_spans_read_the_block_length_when_drawn(monkeypatch):
    walk, blocks = sums.spans(1, 10), sums.chunks(1, 6)
    monkeypatch.setattr(sums, "CHUNK", 4)
    assert list(walk) == [(1, 5), (5, 9), (9, 11)]
    assert [ns.tolist() for ns in blocks] == [[1, 2, 3, 4], [5, 6]]


@pytest.mark.parametrize("sigma", [0.6, 1.0, 2.5])
def test_log_weights_are_within_a_few_ulps(sigma):
    # against 50 digits: each coefficient is within (ell + 2) eps relative
    ns = np.random.default_rng(400).integers(2, 10**8, 400, endpoint=True)
    with mpmath.workdps(50):
        logs = [mpmath.log(int(n)) for n in ns]
        powers = [mpmath.power(int(n), mpmath.mpf(sigma)) for n in ns]
        for ell in range(7):
            got = sums.log_weights(ns, ell, sigma)
            want = np.array([float(lg**ell / p) for lg, p in zip(logs, powers)])
            assert np.all(np.abs(got - want) <= (ell + 2) * np.finfo(float).eps * want), ell


def _csv_bytes(scan):
    scan_csv, lmax_csv = io.StringIO(), io.StringIO()
    zeta.scan_result_to_csv(scan, scan_csv)
    dirichlet.moduli_to_csv(dirichlet.max_over_characters(1, 1019, 5000), lmax_csv)
    return scan_csv.getvalue(), lmax_csv.getvalue()


@pytest.mark.parametrize("chunk", [1, 7, 1000, 2**17])
def test_csv_bytes_do_not_depend_on_the_block_length(monkeypatch, chunk):
    # the scan CSV is written from one scan's 41 moduli in blocks of rows:
    # one row per block at CHUNK = 1, all of them in one block at 2^17.
    # The moduli themselves are summed in the pointwise evaluator's blocks
    # (tests/test_zeta.py::test_scan_rows_equal_pointwise_at_any_block_length)
    scan = zeta.scan_max(1, 1e3, 1e3 + 0.25 * 40, 0.25, 300)
    want = _csv_bytes(scan)
    monkeypatch.setattr(sums, "CHUNK", chunk)
    assert _csv_bytes(scan) == want


def test_an_array_entry_sums_as_it_would_alone():
    # the scan adds its rows' block sums as arrays, the pointwise evaluator
    # as numbers: each entry gets the same bits either way
    rng = np.random.default_rng(5)
    blocks = (rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-8, 9, (40, 6))
              + 1j * rng.standard_normal((40, 6)))
    start = rng.standard_normal(6) + 0j
    rows = sums.compensated_sum(iter(blocks), start)
    assert rows.tolist() == [sums.compensated_sum(blocks[:, i], complex(start[i]))
                             for i in range(6)]
    cancel = [np.array([1e16 + 1e16j]), np.array([1.0 + 1.0j]), np.array([-1e16 - 1e16j])]
    assert sums.compensated_sum(cancel, np.zeros(1, dtype=complex)).tolist() == [1 + 1j]


def _blocks(sizes):
    return [np.arange(size) for size in sizes]


def test_results_come_back_in_block_order(parallel_blocks):
    # later blocks finish first, and are still handed back after the earlier ones
    def slow_first(block):
        time.sleep(0.02 / (1 + int(block[0])))
        return int(block[0])

    blocks = [np.full(sums.CHUNK, k) for k in range(8)]
    assert list(sums.ordered_map(slow_first, blocks)) == list(range(8))
    assert len(parallel_blocks) == 7  # the first block runs inline


def test_at_most_two_blocks_in_flight(parallel_blocks):
    lock = threading.Lock()
    active, most = [0], [0]
    drawn_in = set()

    def work(block):
        with lock:
            active[0] += 1
            most[0] = max(most[0], active[0])
        time.sleep(0.005)
        with lock:
            active[0] -= 1
        return block.size

    def blocks():
        for _ in range(10):
            drawn_in.add(threading.current_thread())
            yield np.zeros(sums.CHUNK)

    assert list(sums.ordered_map(work, blocks())) == [sums.CHUNK] * 10
    assert most[0] == 2
    assert drawn_in == {threading.current_thread()}  # the blocks advance in the caller


@pytest.mark.parametrize("sizes", [
    [1, 1000],                           # a short sum
    [1 << 16, (1 << 16) - 1],            # one full block
    [(1 << 16) - 1] * 20,                # a long sum of blocks thinned by a sieve
], ids=["short", "one-full-block", "thinned"])
def test_small_sums_run_inline(parallel_blocks, sizes):
    assert list(sums.ordered_map(len, _blocks(sizes))) == sizes
    assert parallel_blocks == []


def test_the_second_full_block_starts_the_pool(parallel_blocks):
    # the second full block and every one after it go to the pool
    sizes = [5, sums.CHUNK, 1000, sums.CHUNK, 5, 7]
    assert list(sums.ordered_map(len, _blocks(sizes))) == sizes
    assert len(parallel_blocks) == 3


def test_worker_errors_reach_the_caller(parallel_blocks):
    def fail_on_third(block):
        if block[0] == 2:
            raise ValueError("block 2")
        return block[0]

    blocks = [np.full(sums.CHUNK, k) for k in range(6)]
    with pytest.raises(ValueError, match="block 2"):
        list(sums.ordered_map(fail_on_third, blocks))


# every long sum the package routes through ordered_map, large enough to run
# in parallel; each returns plain values or arrays
ROUTED = {
    "zeta-truncated": lambda: zeta.zeta_derivative_truncated(1, 1.0, 1e7, 300_000).value,
    "zeta-reference": lambda: (lambda r: (r.value, r.error_estimate))(
        zeta.zeta_derivative_reference(2, 1.0, 1e5, 1e-9)),
    "zeta-scan": lambda: zeta.scan_max(1, 1e4, 1.001e4, 0.05, 10_000).moduli,
    "l-derivative": lambda: dirichlet.l_derivative_truncated(
        1, dirichlet.shared_character_table(10007), 17, 300_000).value,
    "smooth-enumerated": lambda: smooth.smooth_twisted_sum(1e10, 29, Unimodular(3e4)),
    "full-unimodular": lambda: smooth.full_twisted_sum(5e5, Unimodular(1e9)),
    # y = 1 keeps every n >= 2, so the sieved blocks stay full
    "nonsmooth-character": lambda: smooth.nonsmooth_twisted_sum(
        5e5, 1, Character(dirichlet.shared_character_table(10007), 5)),
    "nonsmooth-trivial": lambda: smooth.nonsmooth_twisted_sum(5e5, 1, Trivial()),
}


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b, strict=True))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", ROUTED)
def test_parallel_sums_equal_serial_sums_bit_for_bit(parallel_blocks, monkeypatch, name):
    # with one CPU every sum runs inline; with two it runs in parallel, and
    # the bits are the same
    with monkeypatch.context() as m:
        m.setattr(sums.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = ROUTED[name]()
    assert parallel_blocks == []
    parallel = ROUTED[name]()
    assert parallel_blocks, "the sum never ran in parallel"
    assert _same(parallel, serial)


def test_small_and_sieved_twisted_sums_run_inline(parallel_blocks):
    smooth.smooth_twisted_sum(1e4, 100, Unimodular(1.5))
    smooth.smooth_twisted_sum(1e6, 1000, Unimodular(1e9))  # 16 sieve-thinned blocks
    assert parallel_blocks == []


def test_shared_arrays_are_read_only():
    table = dirichlet.shared_character_table(101)
    for shared in (table.dlog, table.roots_lo, table.roots_hi, smooth._shared_spf(1000)):
        with pytest.raises(ValueError, match="read-only"):
            shared[1] = shared[2]
        with pytest.raises(ValueError, match="read-only"):
            shared += shared


def test_a_caller_that_stops_early_leaves_no_block_running(parallel_blocks):
    done = []

    def work(block):
        time.sleep(0.05)
        done.append(1)
        return 0

    it = sums.ordered_map(work, [np.zeros(sums.CHUNK)] * 6)
    next(it), next(it)  # the first block inline, the second from the pool
    it.close()
    finished = len(done)
    time.sleep(0.1)
    assert len(done) == finished  # nothing was left running
    assert len(parallel_blocks) == 2  # nothing was drawn beyond the block in flight


def test_concurrent_callers_share_the_pool(parallel_blocks, monkeypatch):
    # more callers than workers and cores, switching threads as often as the
    # interpreter allows: every caller still gets the serial bits
    with monkeypatch.context() as m:
        m.setattr(sums.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = ROUTED["zeta-truncated"]()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda: got.append(ROUTED["zeta-truncated"]()))
                   for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4


def test_callers_that_arrive_together_make_one_pool(monkeypatch):
    # no pool exists yet and making one is slow: the first callers still
    # make one pool between them and all get it
    monkeypatch.setattr(sums.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sums, "_pool", [None])
    made = []

    class SlowPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowPool)
    start = threading.Barrier(4)
    got = []

    def first_call():
        start.wait()
        got.append(sums._executor())

    callers = [threading.Thread(target=first_call) for _ in range(4)]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10)
        assert len(made) == 1
        assert got == made * 4
    finally:
        for pool in made:
            pool.shutdown()


@pytest.mark.parametrize("call, pooled", [
    (lambda: zeta._em_zeta_derivative(2, complex(1, 1e6), 2_000_001), 61),
    (lambda: zeta.zeta_derivative_truncated(1, 1.0, 1e7, 2 * 10**6), 30),
], ids=["reference-main-term", "truncated"])
def test_long_sums_stay_small_in_parallel(parallel_blocks, call, pooled):
    # the calls of test_zeta.py::test_default_blocks_keep_long_sums_small and
    # its bound, with every block but the first run in parallel, two blocks
    # in flight (blocks of CHUNK / 2 terms for the reference, 62 of them)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak
    assert len(parallel_blocks) == pooled
