"""Self-test of the benchmark harness on a tiny input.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import iwascan.arith
import iwascan.qforms
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["scan", "--p", "3", "--max-m", "300", "--workers", "1", "--format", "csv",
        "--no-header"]


def _cold_run(traced: bool):
    for qual in spans.CACHED:
        layer, func = qual.split(".")
        getattr(importlib.import_module(f"iwascan.{layer}"), func).cache_clear()
    return spans.run(TINY, traced=traced)


def test_self_time_is_duration_minus_union_of_children():
    # root [0, 100] with overlapping children [10, 30] and [20, 50], one at
    # [60, 70], one poking out at [90, 120]; a grandchild [12, 15]
    parent = [-1, 0, 0, 0, 0, 1]
    start = [0, 10, 20, 60, 90, 12]
    end = [100, 30, 50, 70, 120, 15]
    assert spans.self_times(parent, start, end) == [100 - 40 - 10 - 10, 17, 30, 10, 30, 3]


def test_span_tree_has_the_expected_parents():
    summary, tr = _cold_run(traced=True)
    assert summary["exit"] == 0
    names = [tr.names[c] for c in tr.code]
    roots = [i for i, par in enumerate(tr.parent) if par < 0]
    assert [names[i] for i in roots] == [spans.ROOT]
    edges = {(names[par], name) for name, par in zip(names, tr.parent) if par >= 0}
    assert edges == {
        ("cli.main", "greenberg.scan_range"),
        ("greenberg.scan_range", "greenberg.check_field"),
        ("greenberg.check_field", "sunits.build_context"),
        ("greenberg.check_field", "fermat.delta_exact"),
        ("fermat.delta_exact", "fermat.delta_embed"),
        ("sunits.build_context", "arith.is_prime"),
        ("sunits.build_context", "pell.fundamental_unit"),
        ("sunits.build_context", "qforms.class_number"),
        ("sunits.build_context", "qforms.class_order"),
        ("sunits.build_context", "qforms.represent"),
        ("sunits.build_context", "quadint.hensel_sqrt"),
        ("sunits.build_context", "arith.factorize"),  # via qforms.prime_form
        ("fermat.delta_embed", "quadint.hensel_sqrt"),  # precision above ctx.N
        ("qforms.class_number", "arith.factorize"),
        ("qforms.represent", "arith.factorize"),
        ("qforms.represent", "pell.fundamental_unit"),
        ("qforms.represent", "quadint.hensel_sqrt"),
    }
    # self times partition the root span exactly
    root = roots[0]
    selfs = spans.self_times(tr.parent, tr.start, tr.end)
    assert sum(selfs) == tr.end[root] - tr.start[root]
    assert all(x >= 0 for x in selfs)
    # the wrappers are gone again
    assert iwascan.qforms.factorize is iwascan.arith.factorize


def test_layer_metrics_count_what_the_scan_did():
    summary, _ = _cold_run(traced=True)
    m = summary["metrics"]
    fields = workloads.count_items(workloads.WORKLOADS["scan-large-m"], _output(TINY))
    assert m["greenberg.check_field.ms_per_call"] > 0
    assert m["qforms.class_number.calls"] == fields
    assert m["sunits.build_context.calls"] == fields
    assert m["fermat.delta_exact.calls"] == 2 * fields   # unit and generator
    assert m["fermat.delta_embed.calls"] == 2 * fields + m["fermat.precision_doublings"]
    assert m["stats.accept_ratio"] == m["stats.sieve_yield"] == 0
    assert m["greenberg.block_imbalance"] >= 1


def _output(argv: list[str]) -> bytes:
    env = {"PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "iwascan.cli", *argv], env=env,
                          capture_output=True, check=True).stdout


def test_plain_and_traced_runs_match_the_cli_bytes():
    out = _output(TINY)
    assert _cold_run(traced=False)[0]["sha256"] == workloads.digest(out)
    assert _cold_run(traced=True)[0]["sha256"] == workloads.digest(out)


def test_traced_runs_use_one_worker():
    for w in workloads.WORKLOADS.values():
        argv = w.argv(0)
        expect = list(argv)
        if "--workers" in argv:
            expect[argv.index("--workers") + 1] = "1"
        assert run.at_one_worker(argv) == expect


def test_gate_catches_a_corrupted_output():
    w = workloads.WORKLOADS["scan-large-m"]
    out = _output(TINY)
    pinned = {w.name: {"3": workloads.digest(out)}}
    assert workloads.check_output(w, 3 + w.variants, out, pinned) == []
    bad = out.replace(b",true,", b",false,", 1)
    assert bad != out
    assert workloads.check_output(w, 3, bad, pinned)
    assert workloads.check_output(w, 4, out, pinned)  # no pin for that variant


def test_counts_gate_checks_the_acceptance_table():
    rows = "".join(f"{p},{c1},{c2},{c1 - c2}\n" for p, (c1, c2) in workloads.COUNTS.items())
    table = ("p,c1,c2,unresolved\n" + rows + "m,p,h\n").encode()
    assert workloads.check_counts(table) == []
    assert workloads.check_counts(table.replace(b"2279", b"2278"))
    assert workloads.check_counts(b"garbage")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    summary, _ = _cold_run(traced=True)
    measured = set(summary["metrics"]) | {"cli.output_bytes", "trace_overhead"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    pinned = workloads.load_pinned()
    for w in workloads.WORKLOADS.values():
        assert sorted(pinned[w.name], key=int) == [str(v) for v in range(w.variants)]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "table-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == b""
