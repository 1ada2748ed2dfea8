"""Batched differentiable circuit evaluation.

Each gate is relaxed with the standard probability model of logic gates (the
same algebra used in stochastic computing and switching-activity
estimation), read off the semantics table of `GateKind`: the reduction is the
product c of one factor per input -- p for 'and', 1 - p for 'or' and 1 - 2p
for 'xor' -- mapped to the probability that the gate outputs 1.  The
derivative with respect to one input is the product of the other inputs'
factors, negated when the gate inverts its reduction.

The forward pass records one probability row per net in a tape; the backward
pass accumulates seed gradients on pinned nets down to the primary inputs by
reverse traversal.  Both run on whatever circuit they are given: the sampler
gives them the dense cone program of `Circuit.compile`, and with it one tape
and one adjoint buffer per worker, reused for every chunk of a run through the
passes' `out=` argument.  Values are exact at binary input points, where the
relaxation coincides with the discrete circuit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind

# reduction -> (factor of one input, a, s) with P(out = 1) = a + s * c for the
# product c of the factors: c is P(all inputs 1) for 'and', P(all inputs 0)
# for 'or' and the parity bias P(even) - P(odd) for 'xor'.  An inverted gate
# gives (1 - a) - s * c.
_RELAXED = {
    "and": (lambda p: p, 0.0, 1.0),
    "or": (lambda p: 1.0 - p, 1.0, -1.0),
    "xor": (lambda p: 1.0 - 2.0 * p, 0.5, -0.5),
}


def _relaxed(kind: GateKind, rows: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Output probability of one gate, written into `out`."""
    factor, a, s = _RELAXED[kind.reduction]
    if kind.inverted(len(rows)):
        a, s = 1.0 - a, -s
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
    return out


def _others(factors: list[np.ndarray], i: int, out_adj: np.ndarray) -> np.ndarray:
    """The product, left to right, of every factor but the i-th, times out_adj."""
    return functools.reduce(np.multiply, factors[:i] + factors[i + 1 :] + [out_adj])


def _one_gate(kind: GateKind, input_probs) -> tuple[Circuit, np.ndarray]:
    """A circuit of one gate on inputs 0..k-1 with output k, and its (1, k) probabilities."""
    probs = [float(p) for p in input_probs]
    k = len(probs)
    if not kind.arity_ok(k):
        raise CircuitError(f"{kind.value} gate cannot take {k} inputs")
    names = [f"i{j}" for j in range(k)] + ["y"]
    return Circuit(names, list(range(k)), [k], [Gate(kind, tuple(range(k)), k)]), np.array([probs])


def gate_prob(kind: GateKind, input_probs) -> float:
    """Output probability of one gate at scalar input probabilities."""
    circuit, P = _one_gate(kind, input_probs)
    for p in P[0]:
        if not 0.0 <= p <= 1.0:
            raise CircuitError(f"input probability {p} outside [0, 1]")
    return float(forward(circuit, P).values[-1, 0])


def gate_grad(kind: GateKind, input_probs, input_index: int) -> float:
    """d(output prob)/d(input prob) for one input of one gate."""
    circuit, P = _one_gate(kind, input_probs)
    k = circuit.num_inputs
    if not 0 <= input_index < k:
        raise CircuitError(f"input index {input_index} out of range for {k} inputs")
    tape = forward(circuit, P)
    return float(backward(circuit, tape, {circuit.num_inputs: np.ones(1)})[0, input_index])


@dataclass
class ProbTape:
    """Per-net probability rows for one forward pass.

    `values[net_id]` is the (b,) probability row of that net, in the net
    numbering of the circuit the pass ran on.
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


def forward(circuit: Circuit, input_probs: np.ndarray, out: np.ndarray | None = None) -> ProbTape:
    """Relaxed evaluation of every net for a (b, n) input probability matrix.

    With `out`, a (num_nets, >= b) float64 buffer, the tape is written into
    its leading b columns instead of a new array, and the tape is a view of it.
    """
    input_probs = np.asarray(input_probs, dtype=np.float64)
    if input_probs.ndim != 2 or input_probs.shape[1] != circuit.num_inputs:
        raise CircuitError(
            f"expected input probabilities of shape (b, {circuit.num_inputs}), "
            f"got {input_probs.shape}"
        )
    b = input_probs.shape[0]
    values = np.empty((circuit.num_nets, b)) if out is None else out[:, :b]
    if values.shape != (circuit.num_nets, b):
        raise CircuitError(f"tape buffer of shape {out.shape} cannot hold {circuit.num_nets} x {b}")
    # A net that is neither an input nor driven by a gate reads 0, as in a new array.
    written = set(circuit.primary_inputs) | circuit.driver.keys()
    values[[n for n in range(circuit.num_nets) if n not in written]] = 0.0
    values[circuit.primary_inputs] = input_probs.T
    for gi in circuit.topo_order():
        g = circuit.gates[gi]
        _relaxed(g.kind, [values[n] for n in g.inputs], values[g.output])
    return ProbTape(circuit, values)


def backward(
    circuit: Circuit, tape: ProbTape, seeds: dict[int, np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Accumulate seed gradients on pinned nets down to input probabilities.

    `seeds` maps net id -> (b,) dL/d(p_net).  Returns dL/dP of shape (b, n),
    the transpose of a copy of the input rows of the adjoint; inputs outside
    the fan-in of every seeded net get exactly 0.  With `out`, a
    (num_nets, >= b) float64 buffer, the adjoint is zeroed and accumulated in
    its leading b columns instead of a new array.
    """
    b = tape.batch_size
    adj = np.empty_like(tape.values) if out is None else out[:, :b]
    if adj.shape != tape.values.shape:
        raise CircuitError(f"adjoint buffer of shape {out.shape} cannot hold {tape.values.shape}")
    adj.fill(0.0)
    for net, seed in seeds.items():
        if not 0 <= net < circuit.num_nets:
            raise CircuitError(f"pinned net id {net} not in circuit")
        adj[net] += np.asarray(seed, dtype=np.float64)
    for gi in reversed(circuit.topo_order()):
        g = circuit.gates[gi]
        factor = _RELAXED[g.kind.reduction][0]
        factors = [factor(tape.values[n]) for n in g.inputs]
        accumulate = np.subtract if g.kind.inverted(len(factors)) else np.add
        for i, net in enumerate(g.inputs):
            accumulate(adj[net], _others(factors, i, adj[g.output]), out=adj[net])
    return adj[circuit.primary_inputs].T
