"""Batched differentiable circuit evaluation.

Each gate is relaxed with the standard probability model of logic gates (the
same algebra used in stochastic computing and switching-activity
estimation), applied to the (reduction, inverted) pair of each gate in
`Circuit.lowered()`: the reduction is the product c of one factor per input
-- p for 'and', 1 - p for 'or' and 1 - 2p for 'xor' -- mapped to the
probability that the gate outputs 1.  The derivative with respect to one
input is the product of the other inputs' factors, negated when the gate
inverts its reduction.

`forward` returns the tape, one row per net; `backward` carries seed
gradients on pinned nets down to the inputs.  Both run on a `Workspace` of
buffers, made for the call if none is given, which keeps each pass lowered
to a flat list of `(ufunc, args)` calls on fixed rows of its buffers at one
width, every write, add and zeroed row decided then, and run as `for f, args
in ops: f(*args)`.  Values are exact at binary input points, and the passes
run at the workspace's precision.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, CircuitError

# _RELAXED[reduction][inverted] is (a, s) with P(out = 1) = a + s * c: c is P(all inputs 1)
# for 'and', P(all inputs 0) for 'or' and the parity bias P(even) - P(odd) for 'xor'.
_RELAXED = {
    "and": ((0.0, 1.0), (1.0, -1.0)),
    "or": ((1.0, -1.0), (0.0, 1.0)),
    "xor": ((0.5, -0.5), (0.5, 0.5)),
}


class Workspace:
    """A circuit's buffers for the relaxed passes, and the op lists bound to them.

    `tape` and `adj` are (num_nets, rows), `scratch` (widest fan-in + 1, rows); a pass over
    b <= rows rows uses their leading b columns.  `last_tape`, the only tape `backward` takes,
    is the one `forward` returned last, or a `tape` given to hold in place of a new one.
    """

    def __init__(self, circuit: Circuit, rows: int, dtype=np.float32, tape: np.ndarray | None = None):
        self.circuit, self.lists, self.last_tape = circuit, {}, tape
        self.tape = np.empty((circuit.num_nets, rows), dtype) if tape is None else tape
        self.adj = np.empty_like(self.tape)
        self.scratch = np.empty((circuit.lowered().width + 1, rows), self.tape.dtype)

    def _bound(self, circuit: Circuit, key, lower, *args):
        """The lists kept under `key`, made by `lower(self, *args)` on first use."""
        if circuit is not self.circuit:
            raise CircuitError("the workspace was made for another circuit")
        if key not in self.lists:
            self.lists[key] = lower(self, *args)
        return self.lists[key]


def _lower_factors(op: str, tape: np.ndarray, inputs: tuple[int, ...], scratch: np.ndarray,
                   ops: list) -> list[np.ndarray]:
    """One factor row per input: the tape rows for 'and', else scratch rows that `ops` fill."""
    if op == "and":
        return [tape[n] for n in inputs]
    one, two = tape.dtype.type(1.0), tape.dtype.type(2.0)
    for j, n in enumerate(inputs):
        ops += [(np.subtract, (one, tape[n], scratch[j]))] if op == "or" else [
            (np.multiply, (two, tape[n], scratch[j])), (np.subtract, (one, scratch[j], scratch[j]))]
    return list(scratch[: len(inputs)])


def _lower_product(rows: list[np.ndarray], out: np.ndarray, ops: list) -> np.ndarray:
    """The product of two or more rows, left to right, into `out`."""
    ops.append((np.multiply, (rows[0], rows[1], out)))
    ops += [(np.multiply, (out, r, out)) for r in rows[2:]]
    return out


def _lower_forward(ws: Workspace, b: int):
    """(tape, index of its input rows, ops) on the workspace's leading b columns."""
    if b > ws.tape.shape[1]:
        raise CircuitError(f"workspace of {ws.tape.shape[1]} rows cannot hold {b}")
    circuit, values, scratch = ws.circuit, ws.tape[:, :b], ws.scratch[:, :b]
    low = circuit.lowered()
    t = values.dtype.type
    # A slice of leading input rows skips the copy of probabilities already there.
    input_rows = slice(0, circuit.num_inputs) if low.leading_inputs else circuit.primary_inputs
    # A net that is neither an input nor driven by a gate reads 0, as in a new array.
    ops = [(values[n].fill, (0,)) for n in low.undriven]
    for reduction, inverted, inputs, output in low.gates:
        a, s = _RELAXED[reduction][inverted]
        row = values[output]
        factors = _lower_factors(reduction, values, inputs, scratch, ops)
        # c is the product; a constant's is 1, and a NOT's 1 - c is one 1 - p.
        c = _lower_product(factors, row, ops) if len(factors) > 1 else (factors or [t(1.0)])[0]
        if s == -1.0:
            ops.append((np.subtract, (t(a), c, row)))
            continue
        if c is not row:
            ops.append((np.copyto, (row, c)))
        if s != 1.0:
            ops += [(np.multiply, (row, t(s), row)), (np.add, (row, t(a), row))]
    return values, input_rows, ops


def forward(circuit: Circuit, input_probs: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """Relaxed evaluation of every net for a (b, n) input probability matrix.

    Returns the (num_nets, b) tape: row `net` is that net's probability row.
    On a `workspace` of at least b rows the tape is its `tape`'s leading b
    columns, the same view on every call at that width, in its dtype;
    without one it is new, in the input's dtype promoted to at least
    float32.  Input probabilities that already are the tape's input rows
    (same data and strides) are not copied.
    """
    input_probs = np.asarray(input_probs)
    if input_probs.ndim != 2 or input_probs.shape[1] != circuit.num_inputs:
        raise CircuitError(
            f"expected input probabilities of shape (b, {circuit.num_inputs}), "
            f"got {input_probs.shape}"
        )
    b = input_probs.shape[0]
    ws = Workspace(circuit, b, np.result_type(input_probs, np.float32)) if workspace is None else workspace
    values, input_rows, ops = ws._bound(circuit, b, _lower_forward, b)
    values[input_rows] = input_probs.T
    for f, args in ops:
        f(*args)
    ws.last_tape = values
    return values


def _lower_backward(ws: Workspace, tape: np.ndarray, seeded: tuple[int, ...]):
    """(adjoint, seed rows, ops) for a tape of the workspace and the nets that get seeds."""
    circuit, b = ws.circuit, tape.shape[1]
    if bad := [net for net in seeded if not 0 <= net < circuit.num_nets]:
        raise CircuitError(f"pinned net id {bad[0]} not in circuit")
    adj, scratch = ws.adj[:, :b], ws.scratch[:, :b]
    written = [net in seeded for net in range(circuit.num_nets)]
    low = circuit.lowered()
    other = scratch[low.width]  # a later contribution, before it is added
    ops = []
    for reduction, inverted, inputs, output in reversed(low.gates):
        if not written[output]:
            continue
        factors = _lower_factors(reduction, tape, inputs, scratch, ops)
        for i, net in enumerate(inputs):
            terms = factors[:i] + factors[i + 1 :] + [adj[output]]
            row = adj[net]
            dest = other if written[net] else row
            term = _lower_product(terms, dest, ops) if len(terms) > 1 else terms[0]
            if written[net]:
                ops.append((np.subtract if inverted else np.add, (row, term, row)))
            elif inverted:  # a NOT's input row is its output's, negated
                ops.append((np.negative, (term, row)))
            elif term is not row:
                ops.append((np.copyto, (row, term)))
            written[net] = True
    ops += [(adj[n].fill, (0,)) for n, w in enumerate(written) if not w]
    return adj, [adj[net] for net in seeded], ops


def backward(
    circuit: Circuit, tape: np.ndarray, seeds: dict[int, np.ndarray], workspace: Workspace | None = None
) -> np.ndarray:
    """Accumulate seed gradients on pinned nets down to input probabilities.

    `tape` is the (num_nets, b) array that `forward` last returned on
    `workspace` (else on none), and `seeds` maps net id -> (b,) dL/d(p_net),
    which may already be its net's adjoint row; they take the tape's dtype.
    Returns dL/dP of shape (b, n), the transpose of a copy of the adjoint's
    input rows; inputs outside the fan-in of every seeded net get exactly 0,
    and the result equals accumulating into zeros up to the sign of a zero.
    """
    ws = Workspace(circuit, tape.shape[1], tape.dtype, tape) if workspace is None else workspace
    if tape is not ws.last_tape:
        raise CircuitError("the tape is not the one that forward last returned on this workspace")
    adj, seed_rows, ops = ws._bound(circuit, (tape.shape[1], *seeds), _lower_backward, tape, tuple(seeds))
    for row, seed in zip(seed_rows, seeds.values()):
        np.copyto(row, seed, casting="unsafe")
    for f, args in ops:
        f(*args)
    return adj.take(circuit.primary_inputs, axis=0).T
