import itertools

import numpy as np
import pytest

from circsat import (
    Circuit,
    CircuitError,
    ConstraintSet,
    Gate,
    GateKind,
    SamplerConfig,
    forward,
    parse_verilog,
    run_sampling,
    tseytin_encode,
    write_dimacs,
)

from dpll import all_models
from helpers import brute_force_solutions, load, naive_eval, one_gate, parse_dimacs, random_circuit


def cnf_input_projections(circuit, cnf):
    """Input projections of all CNF models, via the toy DPLL enumerator."""
    models = all_models(cnf.var_count, cnf.clauses)
    input_vars = [cnf.var_map[n] for n in circuit.primary_inputs]
    return {tuple(m[v] for v in input_vars) for m in models}


class TestTseytinEncode:
    def test_invalid_circuit_is_rejected(self):
        c = Circuit(["a", "z", "y"], [0], [2], [Gate(GateKind.AND, (0, 1), 2)])
        with pytest.raises(CircuitError, match="invalid circuit: dangling net: 'z'"):
            tseytin_encode(c)

    def test_single_and_counts(self):
        c = Circuit(["a", "b", "y"], [0, 1], [2], [Gate(GateKind.AND, (0, 1), 2)])
        cnf = tseytin_encode(c)
        assert cnf.var_count == 3
        assert len(cnf.clauses) == 3
        # Truth-table equivalence over all 8 assignments of (a, b, y).
        for bits in itertools.product((0, 1), repeat=3):
            assign = {i + 1: bits[i] for i in range(3)}
            sat = all(
                any((lit > 0) == bool(assign[abs(lit)]) for lit in clause)
                for clause in cnf.clauses
            )
            assert sat == (bits[2] == (bits[0] & bits[1]))

    def test_not_gate_pinned_output(self):
        c = Circuit(["a", "y"], [0], [1], [Gate(GateKind.NOT, (0,), 1)])
        cnf = tseytin_encode(c, ConstraintSet({1: 1}))
        a, y = cnf.var_map[0], cnf.var_map[1]
        normalized = {tuple(sorted(cl)) for cl in cnf.clauses}
        assert normalized == {tuple(sorted([a, y])), tuple(sorted([-a, -y])), (y,)}
        assert cnf_input_projections(c, cnf) == {(0,)}

    def test_gate_clause_counts(self):
        # Constants: 1; NOT: 2; fan-in f AND/OR/NAND/NOR: f+1; XOR chain: 4 per stage.
        cases = [
            (GateKind.CONST0, 0, 1),
            (GateKind.CONST1, 0, 1),
            (GateKind.NOT, 1, 2),
            (GateKind.BUF, 1, 2),
            (GateKind.AND, 4, 5),
            (GateKind.NOR, 3, 4),
            (GateKind.XOR, 2, 4),
            (GateKind.XOR, 4, 12),
            (GateKind.XNOR, 3, 8),
            (GateKind.XNOR, 4, 12),
        ]
        for kind, f, want in cases:
            cnf = tseytin_encode(one_gate(kind, f))
            assert len(cnf.clauses) == want, kind
            aux = max(0, f - 2) if kind in (GateKind.XOR, GateKind.XNOR) else 0
            assert cnf.var_count == f + 1 + aux

    def test_c15_projections_equal_brute_force(self):
        c = load("c15.v")
        cs = ConstraintSet.from_names(c, {"G19": 1})
        cnf = tseytin_encode(c, cs)
        assert cnf_input_projections(c, cnf) == brute_force_solutions(c, cs)

    def test_c17_projections_equal_brute_force(self):
        c = load("c17.bench")
        cs = ConstraintSet.from_names(c, {"23": 1})
        cnf = tseytin_encode(c, cs)
        proj = cnf_input_projections(c, cnf)
        assert len(proj) == 18
        assert proj == brute_force_solutions(c, cs)

    def test_random_circuits_projection_equivalence(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = random_circuit(rng, n_inputs=4, n_gates=8)
            cs = ConstraintSet({c.primary_outputs[0]: int(rng.integers(0, 2))})
            cnf = tseytin_encode(c, cs)
            assert cnf_input_projections(c, cnf) == brute_force_solutions(c, cs)

    def test_sampler_solutions_satisfy_cnf(self):
        c = load("c15.v")
        cs = ConstraintSet.from_names(c, {"G19": 1})
        cnf = tseytin_encode(c, cs)
        result = run_sampling(c, cs, SamplerConfig(batch_size=2048, iterations=5, seed=6))
        assert len(result) > 0
        names = [c.name(n) for n in c.primary_inputs]
        for row in result.full_rows():
            values = naive_eval(c, dict(zip(names, row.tolist())))
            assign = {cnf.var_map[n]: values[c.name(n)] for n in range(c.num_nets)}
            for clause in cnf.clauses:
                assert any((lit > 0) == bool(assign[abs(lit)]) for lit in clause)

    def test_counts_deterministic(self):
        c = load("c15.v")
        cs = ConstraintSet.from_names(c, {"G19": 1})
        a = tseytin_encode(c, cs)
        b = tseytin_encode(c, cs)
        assert a.var_count == b.var_count and a.clauses == b.clauses


ONE_GATE_CASES = [
    (kind, f) for kind in GateKind for f in range(5) if kind.arity_ok(f)
]


@pytest.mark.parametrize(
    "kind,fan_in", ONE_GATE_CASES, ids=[f"{k.value}-{f}" for k, f in ONE_GATE_CASES]
)
def test_one_gate_evaluators_agree(kind, fan_in):
    """CNF, relaxed forward, oracle and the naive reference agree on one gate."""
    c = one_gate(kind, fan_in)
    names = c.names[:fan_in]
    for bit in (0, 1):
        cs = ConstraintSet({fan_in: bit})
        assert cnf_input_projections(c, tseytin_encode(c, cs)) == brute_force_solutions(c, cs)
    points = np.array(list(itertools.product((0, 1), repeat=fan_in)), dtype=np.uint8)
    points = points.reshape(2**fan_in, fan_in)
    reference = [naive_eval(c, dict(zip(names, row)))["y"] for row in points.tolist()]
    assert [kind.truth(row) for row in points] == reference
    assert c.eval_batch(points)[:, 0].tolist() == reference
    assert forward(c, points.astype(float))[fan_in].tolist() == reference


def test_undriven_net_reads_zero_in_every_evaluator():
    # `w` is declared and read by nothing: valid, and neither an input nor driven.
    c = parse_verilog("module m(a, b, y); input a, b; output y; wire w; and g(y, a, b); endmodule")
    assert c.validate() == []
    w = c.name_to_id["w"]
    points = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.uint8)
    assert c.eval_batch(points, nets=[w]).tolist() == [[0]] * 4
    assert forward(c, points.astype(float))[w].tolist() == [0.0] * 4
    every = {tuple(p) for p in points.tolist()}
    assert cnf_input_projections(c, tseytin_encode(c, ConstraintSet({w: 0}))) == every
    assert cnf_input_projections(c, tseytin_encode(c, ConstraintSet({w: 1}))) == set()


class TestWriteDimacs:
    def test_empty_formula(self):
        from circsat.cnf import CnfFormula

        assert write_dimacs(CnfFormula(0, [], {})) == "p cnf 0 0\n"

    def test_not_example_body(self):
        c = Circuit(["a", "y"], [0], [1], [Gate(GateKind.NOT, (0,), 1)])
        cnf = tseytin_encode(c, ConstraintSet({1: 1}))
        text = write_dimacs(cnf)
        lines = [ln for ln in text.splitlines() if not ln.startswith("c")]
        assert lines[0] == "p cnf 2 3"
        assert lines[1:] == [" ".join(map(str, cl)) + " 0" for cl in cnf.clauses]

    def test_comments_map_inputs_and_outputs(self):
        c = load("c15.v")
        text = write_dimacs(tseytin_encode(c))
        assert "c input G1 " in text
        assert "c output G19 " in text

    def test_round_trip(self):
        c = load("c17.bench")
        cs = ConstraintSet.from_names(c, {"23": 1})
        cnf = tseytin_encode(c, cs)
        var_count, clauses = parse_dimacs(write_dimacs(cnf))
        assert var_count == cnf.var_count
        assert clauses == cnf.clauses
