"""Self-test of the benchmark: span arithmetic, wrapper installation, the
description of every metric, and a shortened run of every workload.

Run from the repository root: python -m pytest perfbench/tests -q
(about a minute; it is not part of the tier-1 suite).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

E2E = run.E2E_UNITS
LAYER = run.LAYER_UNITS


def test_self_time_from_hand_built_spans():
    store = spans.SpanStore()
    root = store.add("cli.main", 0.0, 10.0)
    a = store.add("smooth.psi_count", 1.0, 4.0, root)
    store.add("zeta.scan_max", 5.0, 7.0, root)
    store.add("primes.sieve_primes", 2.0, 3.0, a)
    store.add("primes.sieve_primes", 1.5, 2.5, a)   # overlaps its sibling
    store.add("smooth.iter_smooth", 3.5, 4.5, a)    # runs past its parent's end
    # root: 10 - (3 + 2); a: 3 - |[1.5, 3]| - |[3.5, 4]|
    assert spans.self_times(store) == pytest.approx([5.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    raw = spans.summarize(store)
    assert raw["cli.main.self_s"] == pytest.approx(5.0)
    assert raw["smooth.psi_count.s"] == pytest.approx(3.0)
    assert raw["smooth.psi_count.self_s"] == pytest.approx(1.0)
    assert raw["smooth.self_s"] == pytest.approx(2.0)        # psi_count + iter_smooth
    assert raw["primes.sieve_primes.calls"] == 2
    assert "smooth.iter_smooth.calls" not in raw             # tallied at creation
    assert spans.covered_time(store, ("primes.", "zeta.")) == pytest.approx(3.5)


def test_ratio_metrics_and_importtime_parsing():
    store = spans.SpanStore()
    for built in (True, False, False, False):
        s = store.add("dirichlet.shared_character_table", 0.0, 1.0)
        if built:
            store.add("dirichlet.build_character_table", 0.0, 0.5, s)
    store.add("zeta.scan_max", 0.0, 1.0, counts={"term_evals": 30})
    store.add("zeta.scan_to_csv", 1.0, 2.0, counts={"term_evals": 10})
    metrics = spans.finalize(spans.summarize(store), {"trace.overhead_s": 0.25},
                             list(LAYER))
    assert list(LAYER) == list(metrics)
    assert metrics["dirichlet.shared_character_table.hit_frac"] == 0.75
    assert metrics["zeta.scan.useful_frac"] == 0.75
    assert metrics["trace.overhead_s"] == 0.25
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        900 |   numpy\n"
            "import time:        50 |         60 |     numpy.core\n")
    assert spans.parse_importtime(text) == {"numpy": 0.0009, "numpy.core": 0.00006}


def test_install_rebinds_every_import_and_undo_restores():
    import zetamax
    from zetamax import dickman, moments, resonator, smooth

    original = dickman.rho
    store = spans.SpanStore()
    installed = spans.install(store)
    try:
        assert smooth.rho is dickman.rho is moments.rho is resonator.rho is zetamax.rho
        assert dickman.rho is not original
        assert smooth.psi_count(1000.0, 7).exact_count == 141
    finally:
        installed.undo()
    assert smooth.rho is original and zetamax.rho is original
    raw = spans.summarize(store)
    assert raw["smooth.psi_count.calls"] == 1
    assert raw["smooth.iter_smooth.calls"] == 1
    assert raw["smooth.iter_smooth.nodes"] == 141
    assert raw["primes.sieve_primes.calls"] >= 2
    assert raw["dickman.rho.calls"] == 1
    # one span per generator, as long as the time spent inside next()
    assert sum(store.names[i] == "smooth.iter_smooth" for i in store.name) == 1
    assert 0 < raw["smooth.iter_smooth.s"] <= raw["smooth.psi_count.s"]


def test_every_metric_is_described(capsys):
    run.describe()  # raises KeyError for a metric without its text in spec.py
    out = capsys.readouterr().out
    assert all(f"{name} [" in out for name in list(E2E) + list(LAYER))


def _check_report(doc, names_units):
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names_units
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())


SHORT = {
    "cli-startup": [["moments", "--ell", "3"], ["l-max", "--q", "101", "--ell", "0", "--N", "300"],
                    ["zeta-eval", "--ell", "1", "--sigma", "1", "--t", "70", "--N", "70"]],
    "cli-heavy": [["moments", "--ell", "200"],
                  ["proof-bookkeeping", "--ell", "6", "--log10-T", "1e8", "--max-u", "60"]],
}


@pytest.mark.parametrize("workload", ["cli-startup", "cli-heavy", "session-warm"])
def test_shortened_workload(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SESSION_SETUPS", 2)
    for trace in (False, True):
        if workload == "session-warm":
            result = run.run_session(5, 0.3, trace, str(tmp_path))
        else:
            result = run.run_cli(workload, 5, 0.1, trace, str(tmp_path), SHORT[workload])
        doc = run.report(workload, result, trace)
        _check_report(doc, LAYER if trace else E2E)
        if trace and workload == "session-warm":
            assert doc["metrics"]["smooth.spf_sieve.calls"]["value"] == 0
            assert doc["metrics"]["dirichlet.build_character_table.calls"]["value"] == 0
            assert doc["metrics"]["setup.smooth.spf_sieve.s"]["value"] > 0
        if trace and workload != "session-warm":
            assert doc["metrics"]["cli.import_s"]["value"] > 0


def test_command_line_interface(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-startup", "--seed", "3",
           "--seconds", "0.1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    _check_report(doc, E2E)

    # without the program beside it, the benchmark fails without a result
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert bare.returncode != 0
    assert "metrics" not in bare.stdout
