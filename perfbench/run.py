"""circsat benchmark: verified unique solutions per second, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload c17-census --seed 0 --seconds 40 --trace 0

One run generates the workload from --seed, then calls
`circsat.cli.main(["sample", ...])` in-process, one invocation after another
(a closed loop with one caller), until --seconds have passed.  Between
invocations it times set-up (parse the netlist and the pins, validate,
topological order) many times.  Every invocation's solutions file is checked
with the benchmark's own evaluator.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with wrappers around circsat's public functions, prints the
per-layer metrics and writes every span to .perfbench_runs/.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_output  # noqa: E402

# Set-up is timed in slices between invocations, so that its median samples
# the same stretch of machine load as the invocations do.
SETUP_SLICE_SECONDS = 0.4
SETUP_MIN_REPS = 21


def import_circsat():
    """Import circsat from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "circsat" / "__init__.py").is_file():
        raise ImportError(f"no circsat package under {src}")
    sys.path.insert(0, str(src))
    import circsat
    import circsat.cli

    if Path(circsat.__file__).resolve().parent != (src / "circsat").resolve():
        raise ImportError(f"circsat imported from {circsat.__file__}, not from {src}")
    return circsat


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = 100 * (n - 10) // n
    return f"p{pct}={sorted(values)[n - 11]:.4f}s (n={n})"


class Bench:
    def __init__(self, circsat, wl: Workload, work: Path):
        self.circsat = circsat
        self.wl = wl
        self.circuit_path = work / wl.filename
        self.circuit_path.write_text(wl.text)
        self.pins_path = work / "pins.txt"
        self.pins_path.write_text("".join(f"{net} {bit}\n" for net, bit in wl.pins.items()))
        self.out = work / "solutions.txt"
        self.stats = work / "stats.json"
        self.argv = ["sample", "--circuit", str(self.circuit_path),
                     "--constraints", str(self.pins_path),
                     "--out", str(self.out), "--stats", str(self.stats)]
        for flag, value in wl.options.items():
            self.argv += [f"--{flag}", value]
        self.attempted = 0
        self.failed = 0
        self.unique: int | None = None
        self.digest: str | None = None

    def setup_reps(self, seconds: float, times: list[float]):
        """Append set-up times to `times` for about `seconds`, at least once."""
        parsers = self.circsat.parsers
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            circuit = parsers.parse_file(self.circuit_path)
            parsers.parse_constraints(self.pins_path.read_text(), circuit)
            circuit.validate()
            circuit.topo_order()
            times.append(time.perf_counter() - t0)
            if time.perf_counter() >= deadline:
                return

    def invoke(self, call) -> float | None:
        """One checked `circsat sample` call; returns its wall time, None if it failed."""
        self.attempted += 1
        for path in (self.out, self.stats):
            path.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = call(self.argv)
                wall = time.perf_counter() - t0
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if not problems:
                problems = self.check()
        except (Exception, SystemExit):
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"invocation {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
            return None
        return wall

    def check(self) -> list[str]:
        text = self.out.read_text()
        rows, problems = check_output(self.wl, text)
        reported = json.loads(self.stats.read_text())["total_unique"]
        if reported != rows:
            problems.append(f"stats report {reported} unique, file has {rows} rows")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest, self.unique = digest, rows
        elif digest != self.digest:
            problems.append("solutions differ from the first invocation with the same seed")
        return problems

    def loop(self, call, seconds: float, before=None) -> list[float]:
        """Invoke until the next call would end after `seconds`; at least once.

        `before`, if given, runs ahead of every invocation and counts towards
        `seconds`.
        """
        walls: list[float] = []
        start = time.perf_counter()
        last = 0.0
        while not walls or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            if before is not None:
                before()
            wall = self.invoke(call)
            last = time.perf_counter() - t0
            if wall is not None:
                walls.append(wall)
            elif self.failed > 3 and not walls:
                break
        return walls


def install_wrappers(tracer: Tracer, circsat, wl: Workload):
    cli, sampler, circuit_mod = circsat.cli, circsat.sampler, circsat.circuit
    pin_bits = {net: bit for net, bit in wl.pins.items()}
    tape_mb = [0.0]

    def count_eval(args, kwargs, result):
        circuit, inputs = args[0], args[1]
        nets = kwargs.get("nets", args[2] if len(args) > 2 else None)
        tracer.count("circuit.eval_rows", len(inputs))
        if nets is not None:
            want = [pin_bits.get(circuit.name(n)) for n in nets]
            if None not in want:
                ok = np.all(np.asarray(result) == np.array(want, dtype=np.uint8), axis=1)
                tracer.count("sampler.satisfied_rows", int(ok.sum()))

    def count_forward(args, kwargs, tape):
        circuit, probs = args[0], args[1]
        nets, rows = getattr(getattr(tape, "values", None), "shape", (circuit.num_nets, len(probs)))
        tracer.count("probsim.gate_rows", (nets - circuit.num_inputs) * rows)
        tape_mb[0] = max(tape_mb[0], nets * rows * 8 / 1e6)

    tracer.install(cli, "parse_file", "parse_file")
    tracer.install(cli, "parse_constraints", "parse_constraints")
    tracer.install(cli, "run_sampling", "run_sampling",
                   lambda a, k, r: tracer.count("sampler.unique", len(r)))
    tracer.install(sampler, "init_embeddings", "init_embeddings")
    tracer.install(sampler, "loss_and_grad", "loss_and_grad")
    tracer.install(sampler, "forward", "forward", count_forward)
    tracer.install(sampler, "backward", "backward")
    tracer.install(sampler, "harden", "harden",
                   lambda a, k, r: tracer.count("sampler.verified_rows", len(r)))
    tracer.install(circuit_mod.Circuit, "validate", "validate")
    tracer.install(circuit_mod.Circuit, "topo_order", "topo_order")
    tracer.install(circuit_mod.Circuit, "eval_batch", "eval_batch", count_eval)
    tracer.install(circsat.cnf, "tseytin_encode", "tseytin_encode",
                   lambda a, k, r: tracer.count("cnf.clauses", len(r.clauses)))
    return tape_mb


def traced_metrics(bench: Bench, circsat, seconds: float, spans_path: Path, env: dict) -> dict:
    wl = bench.wl
    untraced = bench.loop(circsat.cli.main, seconds / 2)
    tracer = Tracer()
    tape_mb = install_wrappers(tracer, circsat, wl)
    walls: dict[int, float] = {}
    try:
        deadline = time.perf_counter() + seconds / 2
        while not walls or time.perf_counter() < deadline:
            tracer.invocation += 1
            wall = bench.invoke(lambda argv: tracer.span("cli.main", circsat.cli.main, argv))
            if wall is None:
                break
            walls[tracer.invocation] = wall
        # Encoding is not part of sampling: record it once, outside any invocation.
        tracer.invocation = 0
        circuit = circsat.parsers.parse_file(bench.circuit_path)
        constraints = circsat.parsers.parse_constraints(bench.pins_path.read_text(), circuit)
        circsat.cnf.tseytin_encode(circuit, constraints)
    finally:
        tracer.uninstall()
    threads = int(wl.options["threads"])
    m = tracer.layer_metrics(walls, threads) if walls else {}
    own = tracer.self_times()
    m["cnf.encode_ms"] = sum(own[i] * 1e3 for i, s in enumerate(tracer.spans)
                             if s[0] == "tseytin_encode")
    m["cnf.clauses"] = tracer.counts[0]["cnf.clauses"]
    m["probsim.tape_mb"] = tape_mb[0] * tracer.max_concurrent("loss_and_grad")
    satisfied = m.get("sampler.satisfied_rows", 0)
    m["sampler.sat_frac"] = satisfied / m["sampler.verified_rows"] if m.get("sampler.verified_rows") else 0.0
    m["sampler.new_frac"] = m.get("sampler.unique", 0) / satisfied if satisfied else 0.0
    traced_run_s = median(walls.values()) if walls else 0.0
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - median(untraced) if untraced else 0.0

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as fh:
        fh.write(json.dumps({"environment": env, "workload": wl.name,
                             "fields": ["name", "start", "end", "parent", "thread", "invocation"],
                             "counts": {str(k): v for k, v in tracer.counts.items()}}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    return m


PER_LAYER_UNITS = {
    "parsers.parse_ms": "ms", "circuit.validate_ms": "ms", "circuit.topo_ms": "ms",
    "circuit.eval_ms": "ms", "circuit.eval_rows": "count",
    "probsim.forward_ms": "ms", "probsim.backward_ms": "ms",
    "probsim.gate_rows": "count", "probsim.tape_mb": "MB",
    "sampler.init_ms": "ms", "sampler.grad_ms": "ms", "sampler.harden_ms": "ms",
    "sampler.dedup_ms": "ms", "sampler.pool_wait_ms": "ms", "sampler.pool_util": "ratio",
    "sampler.verified_rows": "count", "sampler.satisfied_rows": "count",
    "sampler.sat_frac": "ratio", "sampler.new_frac": "ratio",
    "cnf.encode_ms": "ms", "cnf.clauses": "count", "cli.emit_ms": "ms",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.accounted_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        circsat = import_circsat()
        wl = WORKLOADS[args.workload](args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot build the workload from this checkout: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    print(f"workload {wl.name}: {wl.filename}, pins {len(wl.pins)}, "
          f"cone {len(wl.netlist.support_cone(wl.pins))} inputs, options {wl.options}")
    runs = ROOT / ".perfbench_runs"
    work = runs / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(circsat, wl, work)
        if args.trace:
            spans_path = runs / f"spans-{wl.name}-seed{args.seed}.jsonl"
            layer = traced_metrics(bench, circsat, args.seconds, spans_path, env)
            metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
            for name, m in metrics.items():
                print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            setup: list[float] = []
            walls = bench.loop(circsat.cli.main, args.seconds,
                               lambda: bench.setup_reps(SETUP_SLICE_SECONDS, setup))
            while len(setup) < SETUP_MIN_REPS:
                bench.setup_reps(0, setup)
            metrics = end_to_end(bench, setup, walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = bench.failed / bench.attempted
    print(f"fail_frac {fail_frac:.4f} ({bench.failed} of {bench.attempted} invocations)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def end_to_end(bench: Bench, setup: list[float], walls: list[float]) -> dict:
    wl = bench.wl
    run_s = median(walls) if walls else 0.0
    unique = bench.unique or 0
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (median(setup), "s"),
        "unique_per_s": (unique / run_s if run_s else 0.0, "1/s"),
        "unique": (unique, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"  run_s        median {run_s:.4f} s, {tail(walls)}, spread {spread(walls):.3f}, "
          f"samples {[round(w, 3) for w in walls]}")
    print(f"  setup_s      median {median(setup) * 1e3:.4f} ms over {len(setup)} repetitions, "
          f"spread {spread(setup):.3f}")
    print(f"  unique_per_s {metrics['unique_per_s'][0]:.2f} 1/s")
    print(f"  unique       {unique}")
    if wl.known_count:
        print(f"  coverage     {unique / wl.known_count:.5f} of {wl.known_count} known solutions")
    else:
        print("  coverage     undefined: the solution count of this workload is not known")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
