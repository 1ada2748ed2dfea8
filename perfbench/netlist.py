"""The benchmark's own netlist model: writers, a .bench reader and an evaluator.

Nothing here imports circsat.  Outputs of circsat are checked against this
evaluator, so a defect shared by circsat's parsers and oracle cannot hide.

Gate kinds use circsat's documented semantics: multi-input XNOR is the left
fold of binary XNOR (so XNOR over three inputs equals their parity).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

KINDS = ("NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR")


@dataclass(frozen=True)
class Gate:
    kind: str
    inputs: tuple[str, ...]
    output: str


@dataclass
class Netlist:
    inputs: list[str]
    outputs: list[str]
    gates: list[Gate]  # topological order

    def fan_in(self, nets) -> set[str]:
        """Every net in the transitive fan-in of `nets`, themselves included."""
        drivers = {g.output: g for g in self.gates}
        seen: set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net not in seen:
                seen.add(net)
                if net in drivers:
                    stack.extend(drivers[net].inputs)
        return seen

    def support_cone(self, nets) -> list[str]:
        """Primary inputs in the transitive fan-in of `nets`, in input order."""
        seen = self.fan_in(nets)
        return [n for n in self.inputs if n in seen]


def gate_value(kind: str, rows: list[np.ndarray]) -> np.ndarray:
    if kind == "NOT":
        return ~rows[0]
    if kind == "BUF":
        return rows[0].copy()
    acc = rows[0].copy()
    for r in rows[1:]:
        if kind in ("AND", "NAND"):
            acc &= r
        elif kind in ("OR", "NOR"):
            acc |= r
        elif kind == "XOR":
            acc ^= r
        elif kind == "XNOR":
            acc = ~(acc ^ r)
        else:
            raise ValueError(f"unknown gate kind {kind}")
    return ~acc if kind in ("NAND", "NOR") else acc


def evaluate(netlist: Netlist, columns: dict[str, np.ndarray], nets) -> dict[str, np.ndarray]:
    """Evaluate `nets` for bool rows given per input name; unlisted inputs are 0."""
    rows = len(next(iter(columns.values()))) if columns else 0
    values = {n: np.asarray(columns.get(n, np.zeros(rows, bool)), bool) for n in netlist.inputs}
    for g in netlist.gates:
        values[g.output] = gate_value(g.kind, [values[n] for n in g.inputs])
    return {n: values[n] for n in nets}


def all_assignments(width: int) -> np.ndarray:
    """(2**width, width) bool matrix of every assignment, first column most significant."""
    return np.array(list(itertools.product((False, True), repeat=width)), dtype=bool).reshape(
        -1, width
    )


# -- writers ------------------------------------------------------------------


def to_blif(netlist: Netlist) -> str:
    """Each gate as a .names cover that lists its on-set (or its off-set for NAND)."""
    lines = [".model top", ".inputs " + " ".join(netlist.inputs),
             ".outputs " + " ".join(netlist.outputs)]
    for g in netlist.gates:
        lines.append(".names " + " ".join((*g.inputs, g.output)))
        f = len(g.inputs)
        if g.kind == "AND":
            lines.append("1" * f + " 1")
        elif g.kind == "NAND":
            lines.append("1" * f + " 0")
        elif g.kind == "NOR":
            lines.append("0" * f + " 1")
        elif g.kind == "OR":
            lines += ["-" * i + "1" + "-" * (f - i - 1) + " 1" for i in range(f)]
        else:
            table = all_assignments(f)
            on = gate_value(g.kind, [table[:, j] for j in range(f)])
            lines += ["".join("1" if b else "0" for b in row) + " 1" for row in table[on]]
    lines.append(".end")
    return "\n".join(lines) + "\n"


def to_verilog(netlist: Netlist) -> str:
    io = set(netlist.inputs) | set(netlist.outputs)
    wires = [g.output for g in netlist.gates if g.output not in io]
    lines = [
        f"module top({', '.join(netlist.inputs + netlist.outputs)});",
        f"  input {', '.join(netlist.inputs)};",
        f"  output {', '.join(netlist.outputs)};",
    ]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for i, g in enumerate(netlist.gates):
        lines.append(f"  {g.kind.lower()} u{i}({', '.join((g.output, *g.inputs))});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- reader -------------------------------------------------------------------

_BENCH_RE = re.compile(r"^(INPUT|OUTPUT)\((\w+)\)$|^(\w+)\s*=\s*(\w+)\(([\w\s,]*)\)$")
_BENCH_KINDS = {"BUFF": "BUF"}


def read_bench(text: str) -> Netlist:
    inputs: list[str] = []
    outputs: list[str] = []
    pending: list[Gate] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _BENCH_RE.match(line)
        if m is None:
            raise ValueError(f"unrecognised .bench line: {line!r}")
        if m.group(1) == "INPUT":
            inputs.append(m.group(2))
        elif m.group(1) == "OUTPUT":
            outputs.append(m.group(2))
        else:
            kind = _BENCH_KINDS.get(m.group(4), m.group(4))
            ins = tuple(a.strip() for a in m.group(5).split(","))
            pending.append(Gate(kind, ins, m.group(3)))
    # .bench allows any gate order; evaluation needs a topological one.
    ready = set(inputs)
    gates: list[Gate] = []
    while pending:
        rest = [g for g in pending if not set(g.inputs) <= ready]
        if len(rest) == len(pending):
            raise ValueError("cycle or undriven net in .bench netlist")
        for g in pending:
            if set(g.inputs) <= ready:
                gates.append(g)
        ready |= {g.output for g in gates}
        pending = rest
    return Netlist(inputs, outputs, gates)
