"""Tseytin transformation to CNF and DIMACS output.

One variable per net, full biconditional encoding (both implication
directions), so models of the CNF projected onto the primary-input variables
are exactly the circuit's satisfying assignments.  Each gate of
`Circuit.lowered()` is encoded from its reduction and inversion: an inverted
gate negates its output literal, an 'or' reduction is an 'and' over negated
literals with the output negated once more (De Morgan), and an 'xor'
reduction with fan-in > 2 is a chain of binary XOR stages through auxiliary
variables, four clauses each.  A unit clause makes an undriven net 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, CircuitError, ConstraintSet


@dataclass
class CnfFormula:
    var_count: int
    clauses: list[list[int]]
    var_map: dict[int, int]  # net id -> DIMACS variable
    comments: list[str] = field(default_factory=list)


def _binary_xor_clauses(a: int, b: int, y: int) -> list[list[int]]:
    return [[-a, -b, -y], [a, b, -y], [a, -b, y], [-a, b, y]]


def tseytin_encode(circuit: Circuit, constraints: ConstraintSet | None = None) -> CnfFormula:
    diags = circuit.validate()
    if diags:
        raise CircuitError("invalid circuit: " + "; ".join(diags))
    var_map = {net: net + 1 for net in range(circuit.num_nets)}
    next_var = circuit.num_nets + 1
    clauses: list[list[int]] = []

    for op, inverted, inputs, output in circuit.lowered().gates:
        y = var_map[output]
        xs = [var_map[n] for n in inputs]
        if op == "or":  # OR(xs) = NOT AND(NOT xs)
            xs = [-x for x in xs]
        if inverted != (op == "or"):
            y = -y
        if op != "xor":  # y <-> AND(xs)
            clauses += [[-y, x] for x in xs]
            clauses.append([y] + [-x for x in xs])
            continue
        acc = xs[0]
        for x in xs[1:-1]:
            clauses += _binary_xor_clauses(acc, x, next_var)
            acc = next_var
            next_var += 1
        clauses += _binary_xor_clauses(acc, xs[-1], y)
    clauses += [[-var_map[net]] for net in circuit.lowered().undriven]

    comments = [
        f"input {circuit.name(net)} {var_map[net]}" for net in circuit.primary_inputs
    ] + [f"output {circuit.name(net)} {var_map[net]}" for net in circuit.primary_outputs]

    if constraints is not None:
        for net, bit in constraints.pins.items():
            clauses.append([var_map[net] if bit else -var_map[net]])

    return CnfFormula(
        var_count=next_var - 1, clauses=clauses, var_map=var_map, comments=comments
    )


def write_dimacs(cnf: CnfFormula) -> str:
    lines = [f"c {c}" for c in cnf.comments]
    lines.append(f"p cnf {cnf.var_count} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"

