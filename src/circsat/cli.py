"""Command-line surface: sample, verify, export-cnf, info, bench.

Exit codes: 0 ok, 2 input error, 3 verification failure, 4 partial bench
failure.  The subcommands raise on bad input and on failed writes, to files
or to standard output; `main` alone turns those into one `error: ...` line
and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .cnf import tseytin_encode, write_dimacs
from .parsers import parse_constraints, parse_file, read_text
from .sampler import SamplerConfig, SolutionSet, run_sampling

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_BENCH_PARTIAL = 4


# The sampling options of `sample` and of a bench cell, with their defaults, in
# the order a bench cell's grid is expanded, the first outermost.
_DEFAULTS = {
    "lr": SamplerConfig.learning_rate,
    "seed": SamplerConfig.seed,
    "batch": 10000,
    "iters": SamplerConfig.iterations,
    "init_range": SamplerConfig.init_range,
    "dedup": SamplerConfig.dedup_scope,
}


def _config(opts: dict) -> SamplerConfig:
    return SamplerConfig(
        batch_size=opts["batch"],
        learning_rate=opts["lr"],
        iterations=opts["iters"],
        seed=opts["seed"],
        init_range=opts["init_range"],
        dedup_scope=opts["dedup"],
        threads=opts["threads"],
    )


def _solutions_text(result: SolutionSet, emit_all_inputs: bool) -> str:
    # Full-input dedup keys solutions over every input, so cone projection
    # would emit duplicate rows; always write full rows in that scope.
    if emit_all_inputs or result.dedup_scope == "all":
        header = ",".join(result.all_input_names)
        rows = result.full_rows()
    else:
        header = ",".join(result.input_names)
        rows = result.cone_rows()
    # One '0'/'1' byte per bit and a newline column, decoded in one pass.
    text = np.empty((len(rows), rows.shape[1] + 1), dtype=np.uint8)
    np.add(rows, ord("0"), out=text[:, :-1])
    text[:, -1] = ord("\n")
    return header + "\n" + text.tobytes().decode()


def _check_writable(path: Path) -> None:
    """Raise ValueError saying why an output file cannot be created at `path`, if it cannot."""
    if not path.parent.is_dir():
        raise ValueError(f"directory '{path.parent}' of '{path}' does not exist")
    if path.is_dir():
        raise ValueError(f"'{path}' is a directory")


def _write(path: str | Path, text: str) -> None:
    """Write `text` to the file at `path`; a failure is a ValueError naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write '{path}': {exc.strerror}") from exc


def _report(result: SolutionSet, config: SamplerConfig, circuit_path: str,
            constraints_path: str, wall_ms: float) -> dict:
    total = len(result)
    return {
        "config": {
            "circuit": circuit_path,
            "constraints": constraints_path,
            "batch": config.batch_size,
            "lr": config.learning_rate,
            "iters": config.iterations,
            "seed": config.seed,
            "init_range": config.init_range,
            "dedup": config.dedup_scope,
            "threads": config.threads,
            "workers": result.workers,
        },
        "iterations": [dataclasses.asdict(s) for s in result.stats],
        "total_unique": total,
        "wall_ms": wall_ms,
        "throughput_per_s": total / (wall_ms / 1000.0) if wall_ms > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    circuit = parse_file(args.circuit, args.format)
    constraints = parse_constraints(read_text(args.constraints), circuit)
    config = _config(vars(args))
    for path in (Path(args.out), Path(args.stats)):
        _check_writable(path)
    t0 = time.perf_counter()
    result = run_sampling(circuit, constraints, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = _report(result, config, args.circuit, args.constraints, wall_ms)
    report["completed"] = True
    _write(args.out, _solutions_text(result, args.emit_all_inputs))
    _write(args.stats, json.dumps(report, indent=2) + "\n")
    print(f"{len(result)} unique solutions in {wall_ms:.1f} ms -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    circuit = parse_file(args.circuit, args.format)
    constraints = parse_constraints(read_text(args.constraints), circuit)
    cone = circuit.compile(constraints)
    # (line number in the file, stripped text) of each non-blank line.
    lines = [(n, ln.strip()) for n, ln in enumerate(read_text(args.solutions).splitlines(), 1)
             if ln.strip()]
    if not lines:
        print("warning: empty solutions file; nothing to verify", file=sys.stderr)
        return EXIT_OK
    header = [name.strip() for name in lines[0][1].split(",")]
    input_cols = {circuit.name(n): col for col, n in enumerate(circuit.primary_inputs)}
    for k, name in enumerate(header):
        if name not in input_cols:
            raise ValueError(f"header column '{name}' is not a primary input")
        if name in header[:k]:
            raise ValueError(f"duplicate header column '{name}'")
    missing = [name for name in cone.circuit.names[: cone.circuit.num_inputs] if name not in header]
    if missing:
        cols = ", ".join(f"'{name}'" for name in missing)
        raise ValueError(f"header lacks support-cone input column(s) {cols}")
    rows = lines[1:]
    if not rows:
        print("warning: empty solutions file; nothing to verify", file=sys.stderr)
        return EXIT_OK
    # All rows are checked at once, and searched one by one only if one is bad:
    # any character but 0 or 1 leaves a byte that is not b"0" or b"1".
    texts = [row for _, row in rows]
    digits = np.frombuffer("".join(texts).encode(), dtype=np.uint8) - ord("0")
    if set(map(len, texts)) != {len(header)} or np.any(digits > 1):
        line, row = next(r for r in rows if len(r[1]) != len(header) or set(r[1]) - {"0", "1"})
        raise ValueError(f"line {line}: expected {len(header)} bits, got '{row}'")
    # Inputs outside the support cone cannot affect the pinned nets; fill them with 0.
    bits = np.zeros((len(rows), circuit.num_inputs), dtype=np.uint8)
    bits[:, [input_cols[name] for name in header]] = digits.reshape(len(rows), len(header))
    pin_nets = list(cone.pins)
    want = np.array([cone.pins[n] for n in pin_nets], dtype=np.uint8)
    got = cone.circuit.eval_batch(bits[:, cone.input_cols], nets=pin_nets)
    failing = np.flatnonzero(np.any(got != want, axis=1))
    if failing.size:
        k = failing[0]
        bad = {cone.circuit.name(n): int(got[k, j])
               for j, n in enumerate(pin_nets) if got[k, j] != want[j]}
        line, row = rows[k]
        print(f"verification failed at line {line}: row '{row}' gives {bad}")
        return EXIT_VERIFY
    print(f"verified {len(rows)} rows against {len(pin_nets)} pins")
    return EXIT_OK


def cmd_export_cnf(args) -> int:
    if args.out:
        _check_writable(Path(args.out))
    circuit = parse_file(args.circuit, args.format)
    constraints = None
    if args.constraints:
        constraints = parse_constraints(read_text(args.constraints), circuit)
    cnf = tseytin_encode(circuit, constraints)
    text = write_dimacs(cnf)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # the counts below are printed only once the formula is out
    print(f"{cnf.var_count} variables, {len(cnf.clauses)} clauses", file=sys.stderr)
    return EXIT_OK


def cmd_info(args) -> int:
    circuit = parse_file(args.circuit, args.format)
    hist = Counter(g.kind.value for g in circuit.gates)
    info = {
        "inputs": circuit.num_inputs,
        "outputs": circuit.num_outputs,
        "gates": len(circuit.gates),
        "nets": circuit.num_nets,
        "gate_histogram": dict(sorted(hist.items())),
        "max_fan_in": circuit.lowered().width,
        "depth": circuit.depth(),
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"inputs:     {info['inputs']}")
        print(f"outputs:    {info['outputs']}")
        print(f"gates:      {info['gates']}")
        print(f"nets:       {info['nets']}")
        print(f"max fan-in: {info['max_fan_in']}")
        print(f"depth:      {info['depth']}")
        for kind, count in info["gate_histogram"].items():
            print(f"  {kind:<6} {count}")
    return EXIT_OK


def _expand_cells(manifest: object, base: Path) -> list[dict]:
    """One cell per point of the grid of list-valued options; null options take the default."""
    raws = manifest.get("cells", []) if isinstance(manifest, dict) else None
    if not isinstance(raws, list):
        raise ValueError("expected a JSON object whose 'cells' is a list")
    cells = []
    for i, raw in enumerate(raws):
        if not isinstance(raw, dict):
            raise ValueError(f"cell {i} is not a JSON object")
        if not (all(isinstance(raw.get(key), str) for key in ("circuit", "constraints"))
                and isinstance(raw.get("format"), (str, type(None)))):
            raise ValueError(f"cell {i} needs 'circuit', 'constraints' and any 'format' as strings")
        grids = [raw[k] if isinstance(raw.get(k), list) else [raw.get(k)] for k in _DEFAULTS]
        for point in itertools.product(*grids):
            cells.append(
                {
                    "circuit": str(base / raw["circuit"]),
                    "constraints": str(base / raw["constraints"]),
                    "format": raw.get("format"),
                    **{k: _DEFAULTS[k] if v is None else v for k, v in zip(_DEFAULTS, point)},
                }
            )
    return cells


def cmd_bench(args) -> int:
    SamplerConfig(batch_size=1, threads=args.threads)  # checked once, not per cell
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        cells = _expand_cells(manifest, Path(args.manifest).resolve().parent)
        if not cells:
            raise ValueError("manifest contains no cells")
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad manifest: {exc}") from exc
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory '{out_dir}': {exc.strerror}") from exc
    csv_rows = []
    any_failed = False
    for idx, cell in enumerate(cells):
        label = f"cell{idx:03d}"
        try:
            circuit = parse_file(cell["circuit"], cell["format"])
            constraints = parse_constraints(read_text(cell["constraints"]), circuit)
            config = _config({**cell, "threads": args.threads})
            t0 = time.perf_counter()
            result = run_sampling(circuit, constraints, config)
            wall_ms = (time.perf_counter() - t0) * 1000.0
        except (OSError, ValueError, MemoryError) as exc:
            print(f"{label}: FAILED: {exc}", file=sys.stderr)
            _write(out_dir / f"{label}.error.txt", str(exc) + "\n")
            any_failed = True
            continue
        report = _report(result, config, cell["circuit"], cell["constraints"], wall_ms)
        _write(out_dir / f"{label}.stats.json", json.dumps(report, indent=2) + "\n")
        cum_ms = 0.0
        for s in result.stats:
            cum_ms += s.elapsed_ms
            csv_rows.append(
                {
                    "cell": label,
                    "circuit": Path(cell["circuit"]).name,
                    **{k: cell[k] for k in _DEFAULTS},
                    "iteration": s.iteration,
                    "new_unique": s.new_unique,
                    "cumulative_unique": s.cumulative_unique,
                    "satisfied_rows": s.satisfied_rows,
                    "elapsed_ms": round(s.elapsed_ms, 3),
                    "wait_ms": round(s.wait_ms, 3),
                    "cumulative_ms": round(cum_ms, 3),
                    "throughput_per_s": round(
                        s.cumulative_unique / (cum_ms / 1000.0), 3
                    ) if cum_ms > 0 else 0.0,
                }
            )
        print(f"{label}: {Path(cell['circuit']).name} lr={cell['lr']} "
              f"seed={cell['seed']} -> {len(result)} unique in {wall_ms:.1f} ms")
    if csv_rows:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(csv_rows[0]))
        writer.writeheader()
        writer.writerows(csv_rows)
        _write(out_dir / "bench.csv", text.getvalue())
    return EXIT_BENCH_PARTIAL if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_circuit_args(p: argparse.ArgumentParser):
    p.add_argument("--circuit", required=True, help="netlist file (.v/.blif/.bench)")
    p.add_argument(
        "--format", choices=["verilog", "blif", "bench"], default=None,
        help="netlist format (default: inferred from extension)",
    )


_THREADS_HELP = (
    "worker processes (forked); 0 = one per CPU; capped at the CPUs and the chunks; "
    "each runs on its own share of the CPU set, so that no two share a CPU while one idles"
)


# Built once per process: each build leaves some 290 objects in reference
# cycles (argparse's help formatters) for the cyclic collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circsat",
        description="Gradient-based CircuitSAT sampler with parsers, oracle and CNF export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="learn and emit satisfying input assignments")
    _add_circuit_args(p)
    p.add_argument("--constraints", required=True, help="pin file: '<net> <0|1>' lines")
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-range", type=float, dest="init_range")
    p.add_argument("--dedup", choices=["cone", "all"])
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", default="solutions.txt")
    p.add_argument("--stats", default="stats.json")
    p.add_argument("--emit-all-inputs", action="store_true",
                   help="emit all primary inputs (don't-cares as drawn from the seed)")
    p.set_defaults(func=cmd_sample, **_DEFAULTS)

    p = sub.add_parser("verify", help="re-check a solutions file against the oracle")
    _add_circuit_args(p)
    p.add_argument("--constraints", required=True)
    p.add_argument("--solutions", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-cnf", help="Tseytin-encode the circuit to DIMACS")
    _add_circuit_args(p)
    p.add_argument("--constraints", default=None)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_export_cnf)

    p = sub.add_parser("info", help="print circuit statistics")
    _add_circuit_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="run a manifest of sampling cells, emit CSV series")
    p.add_argument("--manifest", required=True, help="JSON manifest of (circuit, config) cells")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # standard output failed: let what it still holds go nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
