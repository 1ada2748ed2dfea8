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
gradients on pinned nets down to the inputs.  Each pass lowers the gates to
a flat list of `(ufunc, args)` calls on fixed rows of one buffer at one
width, every write, add and zeroed row decided then, and runs it as `for f,
args in ops: f(*args)`.  Lists bound to an `out` buffer are kept per circuit
and hold it; without `out` a pass lowers onto new buffers.  Values are exact
at binary input points, and the passes run at the precision of `out`, else
of the input promoted to at least float32.
"""
from __future__ import annotations

import weakref

import numpy as np

from .circuit import Circuit, CircuitError

# _RELAXED[reduction][inverted] is (a, s) with P(out = 1) = a + s * c: c is P(all inputs 1)
# for 'and', P(all inputs 0) for 'or' and the parity bias P(even) - P(odd) for 'xor'.
_RELAXED = {
    "and": ((0.0, 1.0), (1.0, -1.0)),
    "or": ((1.0, -1.0), (0.0, 1.0)),
    "xor": ((0.5, -0.5), (0.5, 0.5)),
}

# circuit -> {key: (the arrays whose ids the key holds, which no other array can then take,
# bound lists)}; at most four, as a sampler worker runs each pass at two chunk widths.
_BOUND: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _bound(circuit: Circuit, held: tuple, extra, lower, *args):
    """`lower(*args)`, kept per the ids of `held` and per `extra`; not kept if held[0] is None."""
    if held[0] is None:
        return lower(*args)
    key, entries = (lower, *map(id, held), *extra), _BOUND.setdefault(circuit, {})
    if key not in entries:
        if len(entries) >= 4:
            entries.clear()
        entries[key] = (held, lower(*args))
    return entries[key][1]


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


def _lower_forward(circuit: Circuit, out: np.ndarray | None, b: int, dtype: np.dtype):
    """(tape, index of its input rows, ops) of a b-column tape."""
    values = np.empty((circuit.num_nets, b), dtype) if out is None else out[:, :b]
    if values.shape != (circuit.num_nets, b):
        raise CircuitError(f"tape buffer of shape {out.shape} cannot hold {circuit.num_nets} x {b}")
    low = circuit.lowered()
    t = values.dtype.type
    # A slice of leading input rows skips the copy of probabilities already there.
    input_rows = slice(0, circuit.num_inputs) if low.leading_inputs else circuit.primary_inputs
    scratch = np.empty((low.width, b), values.dtype)
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


def forward(circuit: Circuit, input_probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Relaxed evaluation of every net for a (b, n) input probability matrix.

    Returns the (num_nets, b) tape: row `net` is that net's probability row.
    With `out`, a (num_nets, >= b) buffer, the tape is that buffer's leading
    b columns, the same view on every call at that width; the lists bound to
    it hold `out` until the circuit goes or four newer bindings replace them.
    The tape has `out`'s dtype, else the input's promoted to at least
    float32.  Input probabilities that already are the tape's input rows
    (same data and strides) are not copied.
    """
    input_probs = np.asarray(input_probs)
    dtype = np.result_type(input_probs, np.float32) if out is None else out.dtype
    if input_probs.ndim != 2 or input_probs.shape[1] != circuit.num_inputs:
        raise CircuitError(
            f"expected input probabilities of shape (b, {circuit.num_inputs}), "
            f"got {input_probs.shape}"
        )
    b = input_probs.shape[0]
    values, input_rows, ops = _bound(circuit, (out,), (b,), _lower_forward, circuit, out, b, dtype)
    values[input_rows] = input_probs.T
    for f, args in ops:
        f(*args)
    return values


def _lower_backward(circuit: Circuit, tape: np.ndarray, seeded: tuple[int, ...],
                    out: np.ndarray | None):
    """(adjoint, seed rows, ops) for a tape and the nets that get seeds."""
    adj = np.empty_like(tape) if out is None else out[:, : tape.shape[1]]
    if adj.shape != tape.shape:
        raise CircuitError(f"adjoint buffer of shape {out.shape} cannot hold {tape.shape}")
    if bad := [net for net in seeded if not 0 <= net < circuit.num_nets]:
        raise CircuitError(f"pinned net id {bad[0]} not in circuit")
    written = [net in seeded for net in range(circuit.num_nets)]
    low = circuit.lowered()
    scratch = np.empty((low.width + 1, tape.shape[1]), adj.dtype)
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
    circuit: Circuit, tape: np.ndarray, seeds: dict[int, np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Accumulate seed gradients on pinned nets down to input probabilities.

    `tape` is the (num_nets, b) array of `forward`, and `seeds` maps net id
    -> (b,) dL/d(p_net), which may already be its net's row of `out`.
    Returns dL/dP of shape (b, n), the transpose of a copy of the adjoint's
    input rows; inputs outside the fan-in of every seeded net get exactly 0,
    and the result equals accumulating into zeros up to the sign of a zero.
    With `out`, a (num_nets, >= b) buffer, the adjoint is accumulated in its
    leading b columns, and `out` and the tape are held as in `forward`.  The
    adjoint has `out`'s dtype, else the tape's, and the seeds are cast to it.
    """
    adj, seed_rows, ops = _bound(circuit, (out, tape), seeds, _lower_backward,
                                 circuit, tape, tuple(seeds), out)
    for row, seed in zip(seed_rows, seeds.values()):
        np.copyto(row, seed, casting="unsafe")
    for f, args in ops:
        f(*args)
    return adj.take(circuit.primary_inputs, axis=0).T
