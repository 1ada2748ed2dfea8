"""Shared test utilities: fixtures, random circuits and independent oracles."""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import os
from pathlib import Path

import numpy as np

from circsat import (
    Circuit,
    CircuitError,
    ConstraintSet,
    Gate,
    GateKind,
    SamplerConfig,
    SolutionSet,
    backward,
    forward,
    harden,
    parse_file,
)
from circsat.probsim import Workspace
from circsat.sampler import Step, _pack_keys

DATA = Path(__file__).parent / "data"
ISCAS_DIR = Path(os.environ.get("CIRCSAT_ISCAS_DIR", DATA / "iscas85"))


class CallLog:
    """Calls recorded across processes, for spies in forked sampler workers.

    A spy in a worker appends to the worker's copy of a list, which the test
    never sees.  `record` instead appends one line per call, holding the pid
    and the recorded fields, to a file under the test's `tmp_path` with one
    `os.write` on an `O_APPEND` descriptor.  One process's calls keep their
    order.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.clear()

    def clear(self) -> None:
        self.path.write_text("")

    def record(self, *fields) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps([os.getpid(), *fields]) + "\n").encode())
        finally:
            os.close(fd)

    def calls(self) -> list[list]:
        """One [pid, *fields] list per call."""
        return [json.loads(line) for line in self.path.read_text().splitlines()]

    def per_iteration(self, iterations: int) -> list[int]:
        """Per iteration, the sum of the last field of every call.

        A sampler worker steps the same chunks in the same order every
        iteration, so each process's calls split into `iterations` equal runs.
        """
        by_pid: dict[int, list] = {}
        for pid, *fields in self.calls():
            by_pid.setdefault(pid, []).append(fields[-1])
        sums = [np.reshape(values, (iterations, -1)).sum(axis=1) for values in by_pid.values()]
        return np.sum(sums, axis=0).tolist()


def load(name: str) -> Circuit:
    return parse_file(DATA / name)


def iscas_path(circuit_name: str) -> Path:
    return ISCAS_DIR / f"{circuit_name}.bench"


_KINDS = [
    GateKind.NOT,
    GateKind.BUF,
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
]


def random_circuit(
    rng: np.random.Generator, n_inputs: int, n_gates: int, max_fan_in: int = 3
) -> Circuit:
    """Random acyclic circuit; gates draw inputs from any earlier net."""
    names = [f"i{k}" for k in range(n_inputs)]
    available = list(range(n_inputs))
    gates = []
    for g in range(n_gates):
        kind = _KINDS[rng.integers(len(_KINDS))]
        if kind in (GateKind.NOT, GateKind.BUF):
            fan_in = 1
        else:
            fan_in = int(rng.integers(2, max_fan_in + 1))
        ins = rng.choice(len(available), size=min(fan_in, len(available)), replace=False)
        ins = [available[i] for i in ins]
        if len(ins) == 1 and kind not in (GateKind.NOT, GateKind.BUF):
            kind = GateKind.NOT
        out = len(names)
        names.append(f"g{g}")
        gates.append(Gate(kind, tuple(ins), out))
        available.append(out)
    driven = {g.output for g in gates}
    used = {n for g in gates for n in g.inputs}
    sinks = sorted(driven - used)
    if not sinks:
        sinks = [gates[-1].output]
    return Circuit(names, list(range(n_inputs)), sinks, gates)


def one_gate(kind: GateKind, fan_in: int) -> Circuit:
    """One gate of `kind` on inputs i0..i{fan_in-1} (nets 0..fan_in-1) driving y (net fan_in)."""
    names = [f"i{j}" for j in range(fan_in)] + ["y"]
    return Circuit(names, list(range(fan_in)), [fan_in], [Gate(kind, tuple(range(fan_in)), fan_in)])


def naive_eval(circuit: Circuit, assignment: dict[str, int]) -> dict[str, int]:
    """Recursive reference evaluator, independent of topo_order."""
    memo = {circuit.name_to_id[k]: int(v) for k, v in assignment.items()}

    def value(net: int) -> int:
        if net in memo:
            return memo[net]
        gate = circuit.gates[circuit.driver[net]]
        bits = [value(n) for n in gate.inputs]
        k = gate.kind
        if k is GateKind.NOT:
            out = 1 - bits[0]
        elif k is GateKind.BUF:
            out = bits[0]
        elif k is GateKind.AND:
            out = int(all(bits))
        elif k is GateKind.OR:
            out = int(any(bits))
        elif k is GateKind.NAND:
            out = 1 - int(all(bits))
        elif k is GateKind.NOR:
            out = 1 - int(any(bits))
        elif k is GateKind.XOR:
            out = bits[0]
            for b in bits[1:]:
                out ^= b
        elif k is GateKind.XNOR:
            out = bits[0]
            for b in bits[1:]:
                out = 1 - (out ^ b)
        elif k is GateKind.CONST0:
            out = 0
        else:
            out = 1
        memo[net] = out
        return out

    return {circuit.names[n]: value(n) for n in range(circuit.num_nets)}


# reduction -> (factor of one input, a, s) with P(out = 1) = a + s * prod(factors);
# an inverted gate gives (1 - a) - s * prod(factors).
_REFERENCE_RELAXED = {
    "and": (lambda p: p, 0.0, 1.0),
    "or": (lambda p: 1.0 - p, 1.0, -1.0),
    "xor": (lambda p: 1.0 - 2.0 * p, 0.5, -0.5),
}


def reference_forward(circuit: Circuit, input_probs: np.ndarray) -> np.ndarray:
    """The relaxed forward pass gate by gate: the (num_nets, b) tape.

    Each gate reads its kind's semantics afresh and multiplies new factor
    arrays, with the same floating-point operations in the same order as
    `forward`, so the two agree bit for bit.  It runs at the precision of
    its input, promoted to at least float32.
    """
    P = np.asarray(input_probs)
    P = P.astype(np.result_type(P, np.float32), copy=False)
    values = np.zeros((circuit.num_nets, P.shape[0]), P.dtype)
    values[circuit.primary_inputs] = P.T
    for gi in circuit.topo_order():
        g = circuit.gates[gi]
        factor, a, s = _REFERENCE_RELAXED[g.kind.reduction]
        if g.kind.inverted(len(g.inputs)):
            a, s = 1.0 - a, -s
        rows = [values[n] for n in g.inputs]
        out = values[g.output]
        if len(rows) > 1:
            np.multiply(factor(rows[0]), factor(rows[1]), out=out)
        else:
            out[...] = factor(rows[0]) if rows else 1.0
        for r in rows[2:]:
            out *= factor(r)
        if s == -1.0:
            np.subtract(a, out, out=out)
        elif s != 1.0:
            out *= s
            out += a
    return values


def reference_backward(circuit: Circuit, values: np.ndarray, seeds: dict[int, np.ndarray]) -> np.ndarray:
    """dL/dP (b, n) by accumulating every contribution into a zeroed adjoint of the tape's dtype."""
    adj = np.zeros_like(values)
    for net, seed in seeds.items():
        adj[net] += np.asarray(seed, dtype=adj.dtype)
    for gi in reversed(circuit.topo_order()):
        g = circuit.gates[gi]
        factor = _REFERENCE_RELAXED[g.kind.reduction][0]
        factors = [factor(values[n]) for n in g.inputs]
        accumulate = np.subtract if g.kind.inverted(len(factors)) else np.add
        for i, net in enumerate(g.inputs):
            others = functools.reduce(np.multiply, factors[:i] + factors[i + 1 :] + [adj[g.output]])
            accumulate(adj[net], others, out=adj[net])
    return adj[circuit.primary_inputs].T


def support_cone(circuit: Circuit, constraints: ConstraintSet) -> set[int]:
    """Primary inputs in the transitive fan-in of any pinned net, constants included.

    A walk back from the pins over a net -> gate map of its own, so it does
    not share code with `Circuit.compile`.
    """
    driver = {g.output: g for g in circuit.gates}
    seen: set[int] = set()
    stack = list(constraints.pins)
    while stack:
        net = stack.pop()
        if net not in seen:
            seen.add(net)
            if net in driver:
                stack.extend(driver[net].inputs)
    return seen & set(circuit.primary_inputs)


def reference_topo_order(circuit: Circuit) -> list[int]:
    """Gate indices in dependency order by Kahn's sort on a min-heap, ties to the lower index.

    The sort as `Circuit.topo_order` did it before it learnt to keep a gate
    order that is already topological; a cycle raises the same CircuitError.
    """
    input_set = set(circuit.primary_inputs)
    indeg: list[int] = []
    fanout: dict[int, list[int]] = {}  # gate index -> dependent gate indices
    for gi, g in enumerate(circuit.gates):
        deg = 0
        for net in g.inputs:
            di = circuit.driver.get(net)
            if di is not None and net not in input_set:
                deg += 1
                fanout.setdefault(di, []).append(gi)
        indeg.append(deg)
    ready = [gi for gi, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        gi = heapq.heappop(ready)
        order.append(gi)
        for dep in fanout.get(gi, ()):
            indeg[dep] -= 1
            if indeg[dep] == 0:
                heapq.heappush(ready, dep)
    if len(order) != len(circuit.gates):
        left = {gi for gi, d in enumerate(indeg) if d}
        path: list[int] = []
        at: dict[int, int] = {}  # gate -> its position in path
        gi = min(left)
        while gi not in at:
            at[gi] = len(path)
            path.append(gi)
            gi = next(circuit.driver[n] for n in circuit.gates[gi].inputs
                      if n not in input_set and circuit.driver.get(n) in left)
        cycle = [circuit.gates[g].output for g in reversed(path[at[gi]:])]
        raise CircuitError("cycle: " + " -> ".join(circuit.names[n] for n in cycle + cycle[:1]))
    return order


def brute_force_solutions(
    circuit: Circuit, constraints: ConstraintSet
) -> set[tuple[int, ...]]:
    """All satisfying full input assignments, by exhaustive enumeration with `naive_eval`."""
    input_names = [circuit.name(n) for n in circuit.primary_inputs]
    sols = set()
    for bits in itertools.product((0, 1), repeat=len(input_names)):
        values = naive_eval(circuit, dict(zip(input_names, bits)))
        if all(values[circuit.name(net)] == t for net, t in constraints.pins.items()):
            sols.add(bits)
    return sols


def scalar_loss(circuit: Circuit, P: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
    """Per-sample l2 loss recomputed directly from a forward pass."""
    tape = forward(circuit, P)
    loss = np.zeros(P.shape[0])
    for net, t in constraints.pins.items():
        loss += (tape[net] - t) ** 2
    return loss


def fd_input_grads(
    circuit: Circuit, P: np.ndarray, constraints: ConstraintSet, step: float = 1e-6
) -> np.ndarray:
    """Central finite differences of the loss w.r.t. input probabilities."""
    grads = np.zeros_like(P)
    for j in range(P.shape[1]):
        up = P.copy()
        up[:, j] += step
        down = P.copy()
        down[:, j] -= step
        grads[:, j] = (
            scalar_loss(circuit, up, constraints) - scalar_loss(circuit, down, constraints)
        ) / (2 * step)
    return grads


def nan_workspace(circuit: Circuit, rows: int, dtype=np.float64) -> Workspace:
    """A workspace for the relaxed passes whose buffers all hold NaN."""
    ws = Workspace(circuit, rows, dtype)
    for buf in (ws.tape, ws.adj, ws.scratch):
        buf.fill(np.nan)
    return ws


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def reference_sampling(circuit: Circuit, constraints: ConstraintSet, config: SamplerConfig,
                       V: np.ndarray | None = None):
    """The sampling loop over the whole circuit, one full-batch V, no compiled cone.

    One (batch, n) draw, cast to float32 as the sampler stores it, unless V
    is given; per
    iteration a whole-circuit forward and backward (float32, the dtype of
    their input), a step on the support cone's columns only, `harden`,
    `eval_batch` over the whole circuit and a row-by-row dedup.  Returns
    (keys, rows, per-iteration (new, cumulative)).
    """
    cone = support_cone(circuit, constraints)
    mask = np.array([net in cone for net in circuit.primary_inputs])
    rng = np.random.Generator(np.random.Philox(key=config.seed & (2**64 - 1)))
    a = config.init_range
    if V is None:
        V = rng.uniform(-a, a, size=(config.batch_size, circuit.num_inputs)).astype(np.float32)
    V = V.copy()
    key_cols = mask if config.dedup_scope == "cone" else np.ones_like(mask)
    pins = list(constraints.pins)
    want = np.array([constraints.pins[n] for n in pins], dtype=np.uint8)
    solutions: dict[bytes, list[int]] = {}
    counts = []
    for _ in range(config.iterations):
        P = two_branch_sigmoid(V)
        tape = forward(circuit, P)
        seeds = {net: 2.0 * (tape[net] - float(t)) for net, t in constraints.pins.items()}
        dV = backward(circuit, tape, seeds) * P * (1.0 - P)
        V[:, mask] -= config.learning_rate * dV[:, mask]
        hard = harden(V)
        ok = np.all(circuit.eval_batch(hard, nets=pins) == want, axis=1)
        new = 0
        for row in hard[ok]:
            key = np.packbits(row[key_cols]).tobytes()
            if key not in solutions:
                solutions[key] = row.tolist()
                new += 1
        counts.append((new, len(solutions)))
    return list(solutions), list(solutions.values()), counts


def solutions_by_key(result: SolutionSet) -> dict[bytes, np.ndarray]:
    """{packed key bits: full row} of a solution set, in discovery order.

    A key is `np.packbits` of the row's dedup columns (the cone inputs, or
    every input in scope 'all'), as `reference_sampling` makes it.  The rows
    are those of `full_rows()`; no two of them may share a key.
    """
    rows = result.full_rows()
    key_cols = result.cone_cols if result.dedup_scope == "cone" else slice(None)
    by_key = {bytes(np.packbits(row[key_cols])): row for row in rows}
    assert len(by_key) == len(rows), "two solutions share a key"
    return by_key


def add_rows(result: SolutionSet, rows: np.ndarray) -> int:
    """Hand full rows with distinct keys to `result` as the sampler does; return how many were new.

    They go to `_add` as one `Step`, whose keys are the `_pack_keys` keys of
    the dedup columns in ascending order, each with the index of its row.
    """
    key_cols = result.cone_cols if result.dedup_scope == "cone" else slice(None)
    keys = _pack_keys(rows[:, key_cols].T)
    first = np.argsort(keys)
    return result._add(Step(rows, first, keys[first]))


# ---------------------------------------------------------------------------
# Netlist writers and a DIMACS reader, for round trips through the parsers
# and the encoder.  The package itself only reads netlists and writes DIMACS.
# ---------------------------------------------------------------------------


def to_verilog(circuit: Circuit, module_name: str = "top") -> str:
    if any(g.kind.is_const for g in circuit.gates):
        raise CircuitError("constant drivers cannot be expressed in the Verilog subset")
    inputs = [circuit.name(n) for n in circuit.primary_inputs]
    outputs = [circuit.name(n) for n in circuit.primary_outputs]
    io = set(circuit.primary_inputs) | set(circuit.primary_outputs)
    wires = list(dict.fromkeys(circuit.name(g.output) for g in circuit.gates if g.output not in io))
    lines = [f"module {module_name}({','.join(inputs + outputs)});"]
    lines.append(f"input {','.join(inputs)};")
    lines.append(f"output {','.join(outputs)};")
    if wires:
        lines.append(f"wire {','.join(wires)};")
    for gi, g in enumerate(circuit.gates):
        kind = g.kind.value.lower()
        args = ",".join([circuit.name(g.output)] + [circuit.name(n) for n in g.inputs])
        lines.append(f"  {kind} U{gi}({args});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def to_bench(circuit: Circuit) -> str:
    """The circuit as .bench, its gates in the circuit's order (as `to_verilog` and `to_blif`)."""
    if any(g.kind.is_const for g in circuit.gates):
        raise CircuitError("constant drivers cannot be expressed in .bench")
    lines = [f"INPUT({circuit.name(n)})" for n in circuit.primary_inputs]
    lines += [f"OUTPUT({circuit.name(n)})" for n in circuit.primary_outputs]
    for g in circuit.gates:
        keyword = "BUFF" if g.kind is GateKind.BUF else g.kind.value
        args = ", ".join(circuit.name(n) for n in g.inputs)
        lines.append(f"{circuit.name(g.output)} = {keyword}({args})")
    return "\n".join(lines) + "\n"


def to_blif(circuit: Circuit, model_name: str = "top") -> str:
    lines = [f".model {model_name}"]
    lines.append(".inputs " + " ".join(circuit.name(n) for n in circuit.primary_inputs))
    lines.append(".outputs " + " ".join(circuit.name(n) for n in circuit.primary_outputs))
    for g in circuit.gates:
        sig = " ".join(circuit.name(n) for n in g.inputs) + (" " if g.inputs else "")
        lines.append(f".names {sig}{circuit.name(g.output)}")
        f = len(g.inputs)
        if g.kind.reduction == "xor":  # enumerate the on-set
            cubes = [bits for bits in itertools.product((0, 1), repeat=f) if g.kind.truth(bits)]
        else:  # all ones decides an 'and', all zeros an 'or'
            cubes = [(int(g.kind.reduction == "and"),) * f]
        for cube in cubes:
            lines.append(f"{''.join(map(str, cube))} {g.kind.truth(cube)}".lstrip())
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """(variable count, clauses) of a DIMACS CNF text."""
    var_count = None
    clauses: list[list[int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: '{line}'")
            var_count = int(parts[2])
            continue
        lits = [int(t) for t in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            clauses.append(lits)
    if var_count is None:
        raise ValueError("missing 'p cnf' header")
    return var_count, clauses
