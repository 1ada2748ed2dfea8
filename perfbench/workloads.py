"""Workload generators and the independent check of each workload's output.

Every workload is a netlist file, a pin file and the `circsat sample` options
to run them with.  The generated netlists are written as BLIF and structural
Verilog and c17 is read from its .bench file, so the three workloads exercise
all three of circsat's parsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import numpy as np

from netlist import KINDS, Gate, Netlist, all_assignments, evaluate, read_bench, to_blif, to_verilog

C17_BENCH = Path(__file__).resolve().parent.parent / "tests" / "data" / "c17.bench"
ADDER_BITS = 16
ADDER_SUM = 30000
# The DAG's structure is fixed and --seed reaches it only through the sampler
# seed: across structure seeds the pinned cone spans 27 to 56 inputs and the
# unique count 18k to 40k, which would swamp every bound.  Seed 1 is the DAG
# of the ROADMAP baseline.
DAG_STRUCTURE_SEED = 1


@dataclass
class Workload:
    name: str
    netlist: Netlist
    pins: dict[str, int]
    filename: str
    text: str
    options: dict[str, str]  # `circsat sample` flags, without the leading dashes
    known_count: int | None = None
    # Check on top of the pin check: (header, rows) -> list of problems.
    extra_check: Callable[[list[str], np.ndarray], list[str]] | None = None


# -- generators ---------------------------------------------------------------


def random_dag(rng: np.random.Generator, n_inputs: int, n_gates: int, max_fan_in: int = 3) -> Netlist:
    """Random acyclic netlist whose gates draw inputs from any earlier net.

    Kinds are uniform over the eight gate kinds; a gate of fan-in 1 that is
    not NOT/BUF becomes NOT.  Outputs are the nets that drive nothing.
    """
    nets = [f"i{k}" for k in range(n_inputs)]
    gates = []
    for g in range(n_gates):
        kind = KINDS[rng.integers(len(KINDS))]
        fan_in = 1 if kind in ("NOT", "BUF") else int(rng.integers(2, max_fan_in + 1))
        picks = rng.choice(len(nets), size=min(fan_in, len(nets)), replace=False)
        ins = tuple(nets[i] for i in picks)
        if len(ins) == 1 and kind not in ("NOT", "BUF"):
            kind = "NOT"
        gates.append(Gate(kind, ins, f"g{g}"))
        nets.append(f"g{g}")
    used = {n for g in gates for n in g.inputs}
    sinks = [g.output for g in gates if g.output not in used] or [gates[-1].output]
    return Netlist(nets[:n_inputs], sinks, gates)


def ripple_adder(n: int) -> Netlist:
    """n-bit ripple-carry adder a + b -> s[0..n] built from 2-input gates."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    s = [f"s{i}" for i in range(n + 1)]
    gates = [Gate("XOR", (a[0], b[0]), s[0]), Gate("AND", (a[0], b[0]), "c0")]
    for i in range(1, n):
        carry_out = s[n] if i == n - 1 else f"c{i}"
        gates += [
            Gate("XOR", (a[i], b[i]), f"p{i}"),
            Gate("AND", (a[i], b[i]), f"k{i}"),
            Gate("XOR", (f"p{i}", f"c{i - 1}"), s[i]),
            Gate("AND", (f"p{i}", f"c{i - 1}"), f"t{i}"),
            Gate("OR", (f"k{i}", f"t{i}"), carry_out),
        ]
    if n == 1:
        gates[1] = Gate("AND", (a[0], b[0]), s[1])
    return Netlist(a + b, s, gates)


def adder_count(n: int, s: int) -> int:
    """Number of (a, b) in [0, 2**n)^2 with a + b == s."""
    if not 0 <= s <= 2 ** (n + 1) - 2:
        return 0
    return s + 1 if s < 2**n else 2 ** (n + 1) - 1 - s


def decode_adder(header: list[str], rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    col = {name: j for j, name in enumerate(header)}
    weights = 1 << np.arange(n, dtype=np.int64)
    a = rows[:, [col[f"a{i}"] for i in range(n)]].astype(np.int64) @ weights
    b = rows[:, [col[f"b{i}"] for i in range(n)]].astype(np.int64) @ weights
    return a, b


def brute_force(netlist: Netlist, pins: dict[str, int], names: list[str]) -> set[tuple[int, ...]]:
    """Every assignment of `names` (all other inputs 0) that meets the pins."""
    table = all_assignments(len(names))
    ok = pin_ok(netlist, pins, {n: table[:, j] for j, n in enumerate(names)}, len(table))
    return {tuple(int(v) for v in row) for row in table[ok]}


def pin_ok(netlist: Netlist, pins: dict[str, int], columns: dict, rows: int) -> np.ndarray:
    values = evaluate(netlist, columns, list(pins))
    ok = np.ones(rows, dtype=bool)
    for net, bit in pins.items():
        ok &= values[net] == bool(bit)
    return ok


# -- workloads ----------------------------------------------------------------


def c17_census(seed: int) -> Workload:
    netlist = read_bench(C17_BENCH.read_text())
    pins = {"23": 1}
    census = brute_force(netlist, pins, netlist.inputs)

    def check(header, rows):
        found = {tuple(int(v) for v in row) for row in rows}
        if header != netlist.inputs:
            return [f"header {header} is not the full input list"]
        if found != census:
            return [f"solution set differs from brute force: {len(found)} vs {len(census)}"]
        return []

    return Workload(
        "c17-census", netlist, pins, "c17.bench", C17_BENCH.read_text(),
        {"batch": "100000", "iters": "10", "seed": str(seed), "dedup": "all", "threads": "1"},
        known_count=len(census), extra_check=check,
    )


def adder16_sum(seed: int) -> Workload:
    netlist = ripple_adder(ADDER_BITS)
    pins = {f"s{i}": (ADDER_SUM >> i) & 1 for i in range(ADDER_BITS + 1)}

    def check(header, rows):
        a, b = decode_adder(header, rows, ADDER_BITS)
        bad = int(np.count_nonzero(a + b != ADDER_SUM))
        return [f"{bad} rows do not decode to a + b = {ADDER_SUM}"] if bad else []

    return Workload(
        "adder16-sum", netlist, pins, "adder16.v", to_verilog(netlist),
        {"batch": "32768", "iters": "10", "seed": str(seed), "dedup": "cone", "threads": "1"},
        known_count=adder_count(ADDER_BITS, ADDER_SUM), extra_check=check,
    )


def dag2k_t2(seed: int) -> Workload:
    netlist = random_dag(np.random.default_rng(DAG_STRUCTURE_SEED), 64, 2000)
    pins = {netlist.outputs[-1]: 1}
    return Workload(
        "dag2k-t2", netlist, pins, "dag2k.blif", to_blif(netlist),
        {"batch": "16384", "iters": "10", "seed": str(seed), "dedup": "cone", "threads": "2"},
    )


WORKLOADS = {"c17-census": c17_census, "adder16-sum": adder16_sum, "dag2k-t2": dag2k_t2}


# -- output check -------------------------------------------------------------


def check_output(wl: Workload, text: str) -> tuple[int, list[str]]:
    """Check a solutions file with the benchmark's own evaluator.

    Returns (number of rows, problems).  Rows must be distinct 0/1 strings of
    the header's width, the header must name distinct primary inputs that
    include the whole support cone of the pins, and every row must meet the
    pins with the inputs it leaves out set to 0 (they are outside the cone).
    """
    lines = text.splitlines()
    if not lines:
        return 0, ["empty solutions file"]
    header = lines[0].split(",") if lines[0] else []
    body = lines[1:]
    problems = []
    if len(set(header)) != len(header):
        problems.append("duplicate header columns")
    unknown = set(header) - set(wl.netlist.inputs)
    if unknown:
        problems.append(f"header names non-inputs {sorted(unknown)}")
    missing = set(wl.netlist.support_cone(wl.pins)) - set(header)
    if missing:
        problems.append(f"header misses cone inputs {sorted(missing)}")
    if len(set(body)) != len(body):
        problems.append(f"{len(body) - len(set(body))} duplicate rows")
    if problems:
        return len(body), problems
    raw = np.frombuffer("".join(body).encode(), dtype=np.uint8)
    if raw.size != len(body) * len(header) or np.any((raw != 48) & (raw != 49)):
        return len(body), ["rows are not 0/1 strings of the header's width"]
    rows = (raw - 48).reshape(len(body), len(header))
    columns = {name: rows[:, j].astype(bool) for j, name in enumerate(header)}
    ok = pin_ok(wl.netlist, wl.pins, columns, len(body))
    if not ok.all():
        problems.append(f"{int((~ok).sum())} rows fail the pins")
    if wl.extra_check is not None:
        problems += wl.extra_check(header, rows)
    return len(body), problems
