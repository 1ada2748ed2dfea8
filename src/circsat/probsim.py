"""Batched differentiable circuit evaluation.

Each gate is relaxed with the standard probability model of logic gates (the
same algebra used in stochastic computing and switching-activity
estimation), read off the semantics table of `GateKind`: the reduction is the
product c of one factor per input -- p for 'and', 1 - p for 'or' and 1 - 2p
for 'xor' -- mapped to the probability that the gate outputs 1.  The
derivative with respect to one input is the product of the other inputs'
factors, negated when the gate inverts its reduction.

The forward pass records every net's probability row in a tape
(structure-of-arrays over the batch); the backward pass accumulates seed
gradients on pinned nets down to the primary inputs by reverse traversal.
Values are exact at binary input points, where the relaxation coincides with
the discrete circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, GateKind

# reduction -> (factor of one input, P(out = 1) and P(out = 0) from the product
# c of the factors).  c is P(all inputs 1) for 'and', P(all inputs 0) for 'or'
# and the parity bias P(even) - P(odd) for 'xor'.
_RELAXED = {
    "and": (lambda p: p, lambda c: c, lambda c: 1.0 - c),
    "or": (lambda p: 1.0 - p, lambda c: 1.0 - c, lambda c: c),
    "xor": (lambda p: 1.0 - 2.0 * p, lambda c: 0.5 - 0.5 * c, lambda c: 0.5 + 0.5 * c),
}


def _relaxed(kind: GateKind, rows: list[np.ndarray], shape) -> np.ndarray:
    """Output probability of one gate, as a new array of `shape`."""
    factor, one, zero = _RELAXED[kind.reduction]
    c = np.ones(shape)
    for r in rows:
        c *= factor(r)
    return zero(c) if kind.inverted(len(rows)) else one(c)


def _derivative(kind: GateKind, rows: list[np.ndarray], i: int) -> np.ndarray:
    """d(output prob)/d(input prob i): ± the product of the other factors."""
    factor = _RELAXED[kind.reduction][0]
    out = np.ones_like(rows[0])
    for j, r in enumerate(rows):
        if j != i:
            out *= factor(r)
    return -out if kind.inverted(len(rows)) else out


def gate_prob(kind: GateKind, input_probs) -> float:
    """Output probability of one gate at scalar input probabilities."""
    probs = [float(p) for p in input_probs]
    if not kind.arity_ok(len(probs)):
        raise CircuitError(f"{kind.value} gate cannot take {len(probs)} inputs")
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise CircuitError(f"input probability {p} outside [0, 1]")
    rows = [np.asarray(p, dtype=float) for p in probs]
    return float(np.clip(_relaxed(kind, rows, ()), 0.0, 1.0))


def gate_grad(kind: GateKind, input_probs, input_index: int) -> float:
    """d(output prob)/d(input prob) for one input of one gate."""
    probs = [float(p) for p in input_probs]
    if not kind.arity_ok(len(probs)):
        raise CircuitError(f"{kind.value} gate cannot take {len(probs)} inputs")
    if not 0 <= input_index < len(probs):
        raise CircuitError(f"input index {input_index} out of range for {len(probs)} inputs")
    rows = [np.asarray(p, dtype=float) for p in probs]
    return float(_derivative(kind, rows, input_index))


@dataclass
class ProbTape:
    """Per-net probability rows for one forward pass.

    `values[net_id]` is the (b,) probability row of that net; rows exist for
    every net in the circuit.
    """

    circuit: Circuit
    values: np.ndarray  # (num_nets, b)

    @property
    def batch_size(self) -> int:
        return self.values.shape[1]

    def net(self, net_id: int) -> np.ndarray:
        return self.values[net_id]

    def by_name(self, name: str) -> np.ndarray:
        return self.values[self.circuit.name_to_id[name]]

    def outputs(self) -> np.ndarray:
        """Y: (b, m) probability matrix over the primary outputs."""
        return self.values[self.circuit.primary_outputs].T


def forward(circuit: Circuit, input_probs: np.ndarray) -> ProbTape:
    """Relaxed evaluation of every net for a (b, n) input probability matrix."""
    input_probs = np.asarray(input_probs, dtype=np.float64)
    if input_probs.ndim != 2 or input_probs.shape[1] != circuit.num_inputs:
        raise CircuitError(
            f"expected input probabilities of shape (b, {circuit.num_inputs}), "
            f"got {input_probs.shape}"
        )
    b = input_probs.shape[0]
    values = np.zeros((circuit.num_nets, b))
    for col, net in enumerate(circuit.primary_inputs):
        values[net] = input_probs[:, col]
    for gi in circuit.topo_order():
        g = circuit.gates[gi]
        row = _relaxed(g.kind, [values[n] for n in g.inputs], b)
        np.clip(row, 0.0, 1.0, out=values[g.output])
    return ProbTape(circuit, values)


def backward(circuit: Circuit, tape: ProbTape, seeds: dict[int, np.ndarray]) -> np.ndarray:
    """Accumulate seed gradients on pinned nets down to input probabilities.

    `seeds` maps net id -> (b,) dL/d(p_net).  Returns dL/dP of shape (b, n);
    inputs outside the fan-in of every seeded net get exactly 0.
    """
    b = tape.batch_size
    adj = np.zeros_like(tape.values)
    touched = np.zeros(circuit.num_nets, dtype=bool)
    for net, seed in seeds.items():
        if not 0 <= net < circuit.num_nets:
            raise CircuitError(f"pinned net id {net} not in circuit")
        adj[net] += np.asarray(seed, dtype=np.float64)
        touched[net] = True
    for gi in reversed(circuit.topo_order()):
        g = circuit.gates[gi]
        if not touched[g.output]:
            continue
        rows = [tape.values[n] for n in g.inputs]
        out_adj = adj[g.output]
        for i, net in enumerate(g.inputs):
            adj[net] += out_adj * _derivative(g.kind, rows, i)
            touched[net] = True
    grads = np.zeros((b, circuit.num_inputs))
    for col, net in enumerate(circuit.primary_inputs):
        if touched[net]:
            grads[:, col] = adj[net]
    return grads
