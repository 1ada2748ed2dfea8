"""Span bookkeeping, and a tiny-batch run of every workload through the checker."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "c17-census": {"batch": "8192", "iters": "2"},
    "adder16-sum": {"batch": "512", "iters": "2"},
    # Two chunks of rows, so the two-thread pool is used.
    "dag2k-t2": {"batch": "8200", "iters": "1"},
}


def test_self_times_and_pool_figures_of_hand_made_spans():
    tracer = Tracer()
    main, worker = tracer._main_thread, -1
    tracer.spans = [
        ["cli.main", 0.0, 10.0, None, main, 1],
        ["run_sampling", 1.0, 9.0, 0, main, 1],
        ["init_embeddings", 1.0, 2.0, 1, main, 1],
        ["loss_and_grad", 3.0, 7.0, 1, worker, 1],
    ]
    assert tracer.self_times() == [2.0, 7.0, 1.0, 4.0]
    m = tracer.layer_metrics({1: 10.0}, threads=2)
    assert m["sampler.pool_wait_ms"] == pytest.approx(4000.0)
    assert m["sampler.dedup_ms"] == pytest.approx(3000.0)
    assert m["sampler.grad_ms"] == pytest.approx(4000.0)
    assert m["sampler.pool_util"] == pytest.approx(4.0 / (7.0 * 2))
    assert m["trace.accounted_frac"] == pytest.approx(1.0)
    assert tracer.max_concurrent("loss_and_grad") == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_batch_run_checks_outputs_and_records_spans(name, tmp_path):
    circsat = run.import_circsat()
    wl = WORKLOADS[name](0)
    wl.options.update(SMALL[name])
    bench = run.Bench(circsat, wl, tmp_path)

    setup = []
    walls = bench.loop(circsat.cli.main, 0, lambda: bench.setup_reps(0, setup))
    e2e = run.end_to_end(bench, setup, walls)
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())

    spans_path = tmp_path / "spans.jsonl"
    layer = run.traced_metrics(bench, circsat, 0, spans_path, run.environment())
    assert bench.failed == 0 and bench.attempted == 3
    assert set(run.PER_LAYER_UNITS) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(run.PER_LAYER_UNITS) - {"sampler.pool_wait_ms"} <= set(layer)

    rows = int(wl.options["batch"]) * int(wl.options["iters"])
    assert layer["sampler.verified_rows"] == layer["circuit.eval_rows"] == rows
    assert 0 < layer["sampler.satisfied_rows"] <= rows
    assert layer["sampler.unique"] == bench.unique
    assert layer["probsim.gate_rows"] == len(wl.netlist.gates) * rows
    assert layer["cnf.clauses"] > 0
    assert 0.99 < layer["trace.accounted_frac"] <= 1.0
    assert 0 < layer["sampler.pool_util"] <= 1.0
    if wl.options["threads"] == "2":
        assert layer["sampler.pool_wait_ms"] > 0
        assert layer["probsim.tape_mb"] == pytest.approx(
            2 * (len(wl.netlist.inputs) + len(wl.netlist.gates)) * 8192 * 8 / 1e6)

    header, *spans = spans_path.read_text().splitlines()
    assert json.loads(header)["workload"] == name
    names = {json.loads(s)[0] for s in spans}
    assert {"cli.main", "parse_file", "run_sampling", "forward", "backward",
            "eval_batch", "tseytin_encode"} <= names


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c17-census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
