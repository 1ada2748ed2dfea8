"""Batched differentiable circuit evaluation.

Each gate is relaxed with the standard probability model of logic gates (the
same algebra used in stochastic computing and switching-activity
estimation), applied to the (reduction, inverted) pair of each gate in
`Circuit.lowered()`: the reduction is the product c of one factor per input
-- p for 'and', 1 - p for 'or' and 1 - 2p for 'xor' -- mapped to the
probability that the gate outputs 1.  The derivative with respect to one
input is the product of the other inputs' factors, negated when the gate
inverts its reduction.

The forward pass walks the circuit's lowered gates and returns the tape, a
plain (num_nets, b) array with one probability row per net; the backward
pass takes that array, walks the lowered gates in reverse and carries seed
gradients on pinned nets down to the primary inputs, writing a net's first
contribution into its row and adding later ones.  Neither pass looks up a
gate kind.  Both run on whatever circuit they are given: the sampler
gives them the dense cone program of `Circuit.compile`, and with it one tape
and one adjoint buffer per worker, reused for every chunk of a run through
the passes' `out=` argument.  Values are exact at binary input points, where
the relaxation coincides with the discrete circuit.

Both passes run at the precision of their buffers: `out`'s dtype when given,
else the input's, promoted to at least float32.  The sampler runs them in
float32; float64 callers get float64 tapes and gradients.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, CircuitError

# _RELAXED[reduction][inverted] is (a, s) with P(out = 1) = a + s * c for the
# product c of one factor per input: p for 'and', 1 - p for 'or' and 1 - 2p for
# 'xor'.  c is P(all inputs 1) for 'and', P(all inputs 0) for 'or' and the
# parity bias P(even) - P(odd) for 'xor'.  An inverted gate gives (1 - a) - s * c.
_RELAXED = {
    "and": ((0.0, 1.0), (1.0, -1.0)),
    "or": ((1.0, -1.0), (0.0, 1.0)),
    "xor": ((0.5, -0.5), (0.5, 0.5)),
}


def _factors(op: str, values: np.ndarray, inputs: tuple[int, ...], scratch: np.ndarray) -> list:
    """One factor row per input: the tape rows for 'and', else written into scratch rows."""
    if op == "and":
        return [values[n] for n in inputs]
    if op == "or":
        return [np.subtract(1.0, values[n], out=scratch[j]) for j, n in enumerate(inputs)]
    return [np.subtract(1.0, np.multiply(2.0, values[n], out=scratch[j]), out=scratch[j])
            for j, n in enumerate(inputs)]


def _product(rows: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """The product of two or more rows, left to right, written into `out`."""
    np.multiply(rows[0], rows[1], out=out)
    for r in rows[2:]:
        out *= r
    return out


def forward(circuit: Circuit, input_probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Relaxed evaluation of every net for a (b, n) input probability matrix.

    Returns the (num_nets, b) tape: row `net` is that net's probability row.
    With `out`, a (num_nets, >= b) buffer, the tape is written into its
    leading b columns instead of a new array, and the tape is a view of it.
    The tape has `out`'s dtype, else the input's promoted to at least float32.
    Input probabilities that already are the tape's input rows (same data and
    strides) are not copied.
    """
    input_probs = np.asarray(input_probs)
    dtype = np.result_type(input_probs, np.float32) if out is None else out.dtype
    input_probs = input_probs.astype(dtype, copy=False)
    if input_probs.ndim != 2 or input_probs.shape[1] != circuit.num_inputs:
        raise CircuitError(
            f"expected input probabilities of shape (b, {circuit.num_inputs}), "
            f"got {input_probs.shape}"
        )
    b = input_probs.shape[0]
    values = np.empty((circuit.num_nets, b), dtype) if out is None else out[:, :b]
    if values.shape != (circuit.num_nets, b):
        raise CircuitError(f"tape buffer of shape {out.shape} cannot hold {circuit.num_nets} x {b}")
    low = circuit.lowered()
    # A net that is neither an input nor driven by a gate reads 0, as in a new array.
    values[low.undriven] = 0.0
    leading = values[: circuit.num_inputs]
    if not (low.leading_inputs and input_probs.ctypes.data == leading.ctypes.data
            and input_probs.T.strides == leading.strides):
        values[circuit.primary_inputs] = input_probs.T
    scratch = np.empty((low.width, b), dtype)
    for reduction, inverted, inputs, output in low.gates:
        a, s = _RELAXED[reduction][inverted]
        row = values[output]
        factors = _factors(reduction, values, inputs, scratch)
        if len(factors) > 1:
            _product(factors, row)
        else:
            row[...] = factors[0] if factors else 1.0
        if s == -1.0:
            np.subtract(a, row, out=row)
        elif s != 1.0:
            row *= s
            row += a
    return values


def backward(
    circuit: Circuit, tape: np.ndarray, seeds: dict[int, np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Accumulate seed gradients on pinned nets down to input probabilities.

    `tape` is the (num_nets, b) array of `forward`, and `seeds` maps net id
    -> (b,) dL/d(p_net).  Returns dL/dP of shape (b, n), the transpose of a
    copy of the input rows of the adjoint; inputs outside the fan-in of
    every seeded net get exactly 0.  With `out`, a
    (num_nets, >= b) buffer, the adjoint is accumulated in its leading b
    columns instead of a new array.  The adjoint has `out`'s dtype, else the
    tape's, and the seeds are cast to it.

    A net's first contribution is written into its row, later ones are added
    to it; rows that nothing reaches are zeroed at the end.  This equals
    accumulating into zeros up to the sign of a zero gradient.
    """
    b = tape.shape[1]
    adj = np.empty_like(tape) if out is None else out[:, :b]
    if adj.shape != tape.shape:
        raise CircuitError(f"adjoint buffer of shape {out.shape} cannot hold {tape.shape}")
    written = [False] * circuit.num_nets
    for net, seed in seeds.items():
        if not 0 <= net < circuit.num_nets:
            raise CircuitError(f"pinned net id {net} not in circuit")
        adj[net] = np.asarray(seed, dtype=adj.dtype)
        written[net] = True
    low = circuit.lowered()
    scratch = np.empty((low.width + 1, b), adj.dtype)
    other = scratch[low.width]  # a later contribution, before it is added
    for reduction, inverted, inputs, output in reversed(low.gates):
        if not written[output]:
            continue
        factors = _factors(reduction, tape, inputs, scratch)
        for i, net in enumerate(inputs):
            terms = factors[:i] + factors[i + 1 :] + [adj[output]]
            if not written[net]:
                if len(terms) > 1:
                    _product(terms, adj[net])
                else:
                    adj[net] = terms[0]
                if inverted:
                    np.negative(adj[net], out=adj[net])
                written[net] = True
            else:
                term = _product(terms, other) if len(terms) > 1 else terms[0]
                (np.subtract if inverted else np.add)(adj[net], term, out=adj[net])
    adj[[n for n, w in enumerate(written) if not w]] = 0.0
    return adj[circuit.primary_inputs].T
