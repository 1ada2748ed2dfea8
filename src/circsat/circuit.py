"""Circuit data model, validation, topological ordering and the discrete oracle.

Nets are referenced by dense integer ids; names are kept alongside for
diagnostics and file I/O.  A Circuit is immutable after construction and safe
to share across threads.  Cycles are found in one place: `topo_order` names
one when its sort gets stuck, and `validate` reports that as a diagnostic.
`lowered` is the one form of the gates that every evaluator reads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class CircuitError(ValueError):
    """Raised for malformed circuits, constraints or assignments."""


class GateKind(Enum):
    """Gate kinds and their semantics, defined once by `_SEMANTICS` below.

    Each kind is a reduction over its inputs -- 'and', 'or' or 'xor', where
    'and' over no inputs is 1 -- followed by an optional output inversion.
    n-ary XNOR is the left fold of binary XNOR, i.e. parity inverted exactly
    when the fan-in is even.  The constants are 'and' over zero inputs.  The
    relaxed model, the oracle and the Tseytin encoder read this table through
    `Circuit.lowered`, and the BLIF covers and constant folding through `truth`.
    """

    NOT = "NOT"
    BUF = "BUF"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    # 0-fan-in pseudo-gates for constant drivers (BLIF constant covers).
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @property
    def is_const(self) -> bool:
        return self.arity_ok(0)

    @property
    def reduction(self) -> str:
        """'and', 'or' or 'xor'."""
        return _SEMANTICS[self][0]

    def inverted(self, fan_in: int) -> bool:
        """Whether the output is the negated reduction at this fan-in."""
        if self is GateKind.XNOR:
            return fan_in % 2 == 0
        return _SEMANTICS[self][1]

    def arity_ok(self, n: int) -> bool:
        _, _, lo, hi = _SEMANTICS[self]
        return lo <= n and (hi is None or n <= hi)

    def truth(self, bits) -> int:
        """Output bit for a sequence of input bits."""
        bits = [int(b) for b in bits]
        op = self.reduction
        out = all(bits) if op == "and" else any(bits) if op == "or" else sum(bits) % 2
        return int(out) ^ self.inverted(len(bits))


# kind -> (reduction, inverted, min fan-in, max fan-in or None).  XNOR's
# inversion depends on the fan-in; see GateKind.inverted.
_SEMANTICS = {
    GateKind.NOT: ("and", True, 1, 1),
    GateKind.BUF: ("and", False, 1, 1),
    GateKind.AND: ("and", False, 2, None),
    GateKind.OR: ("or", False, 2, None),
    GateKind.NAND: ("and", True, 2, None),
    GateKind.NOR: ("or", True, 2, None),
    GateKind.XOR: ("xor", False, 2, None),
    GateKind.XNOR: ("xor", None, 2, None),
    GateKind.CONST0: ("and", True, 0, 0),
    GateKind.CONST1: ("and", False, 0, 0),
}

_REDUCE = {"and": np.logical_and, "or": np.logical_or, "xor": np.logical_xor}


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Lowered:
    """A circuit's gates in topological order, with `GateKind` read off once.

    `gates` holds (reduction, inverted, inputs, output) per gate.  `width` is
    the widest fan-in, `undriven` the nets that are neither inputs nor driven,
    and `leading_inputs` whether the inputs are nets 0..n-1.
    """

    gates: list[tuple[str, bool, tuple[int, ...], int]]
    width: int
    undriven: list[int]
    leading_inputs: bool


@dataclass(frozen=True)
class ConstraintSet:
    """Pinned target bits on nets (outputs or intermediates)."""

    pins: dict[int, int]

    @staticmethod
    def from_names(circuit: "Circuit", pins: dict[str, int]) -> "ConstraintSet":
        by_id: dict[int, int] = {}
        for name, bit in pins.items():
            if name not in circuit.name_to_id:
                raise CircuitError(f"pinned net '{name}' does not exist in the circuit")
            if bit not in (0, 1):
                raise CircuitError(f"pin value for '{name}' must be 0 or 1, got {bit!r}")
            by_id[circuit.name_to_id[name]] = bit
        return ConstraintSet(by_id)


class Circuit:
    """Immutable combinational DAG of gates over named nets."""

    def __init__(
        self,
        names: list[str],
        primary_inputs: list[int],
        primary_outputs: list[int],
        gates: list[Gate],
    ):
        self.names = list(names)
        self.name_to_id = {n: i for i, n in enumerate(self.names)}
        if len(self.name_to_id) != len(self.names):
            raise CircuitError("net names must be unique")
        self.primary_inputs = list(primary_inputs)
        self.primary_outputs = list(primary_outputs)
        self.gates = list(gates)
        self.driver: dict[int, int] = {}
        for gi, g in enumerate(self.gates):
            self.driver.setdefault(g.output, gi)
        self._topo: list[int] | None = None
        self._diags: list[str] | None = None
        self._lowered: Lowered | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def num_nets(self) -> int:
        return len(self.names)

    @property
    def num_inputs(self) -> int:
        return len(self.primary_inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.primary_outputs)

    def name(self, net: int) -> str:
        return self.names[net]

    # -- validation -------------------------------------------------------

    def validate(self) -> list[str]:
        """Return one diagnostic string per invariant violation (empty = valid).

        A cycle is reported through `topo_order`, whose order is then cached.
        The diagnostics are found once per circuit; each call returns a new list.
        """
        if self._diags is not None:
            return list(self._diags)
        diags: list[str] = []
        input_set = set(self.primary_inputs)
        driven: dict[int, list[int]] = {}
        for gi, g in enumerate(self.gates):
            driven.setdefault(g.output, []).append(gi)
        for net, gis in driven.items():
            if len(gis) > 1:
                diags.append(
                    f"multiple drivers: net '{self.names[net]}' driven by gates {gis}"
                )
            if net in input_set:
                diags.append(
                    f"multiple drivers: primary input '{self.names[net]}' is also driven by gate {gis[0]}"
                )
        for gi, g in enumerate(self.gates):
            if not g.kind.arity_ok(len(g.inputs)):
                diags.append(
                    f"bad fan-in: gate {gi} ({g.kind.value}) on net "
                    f"'{self.names[g.output]}' has {len(g.inputs)} inputs"
                )
            for net in g.inputs:
                if net not in input_set and net not in driven:
                    diags.append(
                        f"dangling net: '{self.names[net]}' used by gate {gi} "
                        "is neither a primary input nor driven by any gate"
                    )
        for net in self.primary_outputs:
            if net not in input_set and net not in driven:
                diags.append(f"dangling net: primary output '{self.names[net]}' has no driver")
        try:
            self.topo_order()
        except CircuitError as exc:
            diags.append(str(exc))
        self._diags = diags
        return list(diags)

    # -- topological order ------------------------------------------------

    def topo_order(self) -> list[int]:
        """Gate indices in dependency order, ties broken by ascending index.

        Raises CircuitError naming the nets of one cycle if there is one.
        """
        if self._topo is not None:
            return self._topo
        input_set = set(self.primary_inputs)
        indeg: list[int] = []
        fanout: dict[int, list[int]] = {}  # gate index -> dependent gate indices
        for gi, g in enumerate(self.gates):
            deg = 0
            for net in g.inputs:
                di = self.driver.get(net)
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
        if len(order) != len(self.gates):
            # Every gate left over has an input driven by another left-over
            # gate, so walking back along such inputs revisits a gate; the
            # stretch from its first visit is a cycle.
            left = {gi for gi, d in enumerate(indeg) if d}
            path: list[int] = []
            at: dict[int, int] = {}  # gate -> its position in path
            gi = min(left)
            while gi not in at:
                at[gi] = len(path)
                path.append(gi)
                gi = next(self.driver[n] for n in self.gates[gi].inputs
                          if n not in input_set and self.driver.get(n) in left)
            cycle = [self.gates[g].output for g in reversed(path[at[gi]:])]
            raise CircuitError("cycle: " + " -> ".join(self.names[n] for n in cycle + cycle[:1]))
        self._topo = order
        return order

    def lowered(self) -> Lowered:
        """The gates in topological order with their semantics, lowered once.

        The relaxed passes, the oracle, the CNF encoder and `depth` read it.
        """
        if self._lowered is None:
            gates = [self.gates[gi] for gi in self.topo_order()]
            driven = set(self.primary_inputs) | self.driver.keys()
            self._lowered = Lowered(
                [(g.kind.reduction, g.kind.inverted(len(g.inputs)), g.inputs, g.output)
                 for g in gates],
                max((len(g.inputs) for g in gates), default=0),
                [n for n in range(self.num_nets) if n not in driven],
                self.primary_inputs == list(range(self.num_inputs)),
            )
        return self._lowered

    def depth(self) -> int:
        """Topological depth: longest input-to-output gate chain."""
        level = [0] * self.num_nets
        d = 0
        for _, _, inputs, output in self.lowered().gates:
            lv = 1 + max((level[net] for net in inputs), default=0)
            level[output] = lv
            d = max(d, lv)
        return d

    # -- discrete oracle --------------------------------------------------

    def eval_batch(self, inputs: np.ndarray, nets: list[int] | None = None) -> np.ndarray:
        """Vectorized discrete simulation of a (b, n) 0/1 matrix.

        Returns a (b, len(nets)) uint8 array, the transpose of a net-major
        one; `nets` defaults to the primary outputs, and an undriven net
        reads 0.  Column order of `inputs` follows `primary_inputs`.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.num_inputs:
            raise CircuitError(
                f"expected input matrix of shape (b, {self.num_inputs}), got {inputs.shape}"
            )
        b = inputs.shape[0]
        vals = dict.fromkeys(self.lowered().undriven, np.zeros(b, bool))
        for col, net in enumerate(self.primary_inputs):
            vals[net] = inputs[:, col].astype(bool)
        for reduction, inverted, inputs, output in self.lowered().gates:
            rows = [vals[n] for n in inputs]
            if len(rows) > 1:
                op = _REDUCE[reduction]
                value = op(rows[0], rows[1])
                for r in rows[2:]:
                    op(value, r, out=value)
                if inverted:
                    np.logical_not(value, out=value)
            elif rows:  # NOT or BUF; a row is never written after it is made
                value = np.logical_not(rows[0]) if inverted else rows[0]
            else:
                value = np.full(b, not inverted)
            vals[output] = value
        if nets is None:
            nets = self.primary_outputs
        # Net-major, so each net's row is one contiguous write; callers that
        # check nets one at a time read `out.T`.
        out = np.empty((len(nets), b), dtype=np.uint8)
        for j, net in enumerate(nets):
            out[j] = vals[net]
        return out.T

    # -- the compiled cone program ----------------------------------------

    def compile(self, constraints: ConstraintSet) -> ConeProgram:
        """The `ConeProgram` of the pinned nets.

        A net whose fan-in holds no primary input is constant.  A constant
        net in the cone becomes one constant gate, and its fan-in leaves the
        cone; a pin on it stays, so the program's oracle judges it.
        """
        pins = constraints.pins
        const: dict[int, int] = {}
        for gi in self.topo_order():
            g = self.gates[gi]
            if all(n in const for n in g.inputs):
                const[g.output] = g.kind.truth([const[n] for n in g.inputs])
        # The pins' fan-in, not past a constant; in reverse topological order
        # every reader of a gate's output is visited before the gate.
        cone = set(pins)
        for gi in reversed(self.topo_order()):
            g = self.gates[gi]
            if g.output in cone and g.output not in const:
                cone.update(g.inputs)
        cols = [c for c, net in enumerate(self.primary_inputs) if net in cone]
        order = [gi for gi in self.topo_order() if self.gates[gi].output in cone]
        nets = [self.primary_inputs[c] for c in cols] + [self.gates[gi].output for gi in order]
        local = {net: i for i, net in enumerate(nets)}
        if floating := [self.names[n] for n in pins if n not in local]:
            raise CircuitError(f"pinned net '{floating[0]}' is neither an input nor driven by a gate")
        gates = []
        for gi in order:
            kind, ins, out = self.gates[gi].kind, self.gates[gi].inputs, self.gates[gi].output
            if out in const:
                kind, ins = (GateKind.CONST1 if const[out] else GateKind.CONST0), ()
            gates.append(Gate(kind, tuple(local[n] for n in ins), local[out]))
        dense = Circuit([self.names[n] for n in nets], list(range(len(cols))),
                        [local[n] for n in pins], gates)
        dense._topo = list(range(len(gates)))
        constants = {local[n]: const[n] for n in nets if n in const}
        return ConeProgram(dense, cols, {local[n]: bit for n, bit in pins.items()}, constants)


@dataclass(frozen=True)
class ConeProgram:
    """The fan-in cone of some pinned nets, compiled to a dense circuit.

    `circuit` numbers the cone inputs 0..k-1 in primary-input order, then its
    gate outputs in topological order, under the source names; cone input i
    is primary-input column `input_cols[i]`.  `pins` and `constants` map local
    net ids to the pinned bit and to the value of each constant net.  The
    relaxed passes, the step and the oracle all run on it.
    """

    circuit: Circuit
    input_cols: list[int]
    pins: dict[int, int]
    constants: dict[int, int]

