import functools
import itertools

import numpy as np
import pytest

from circsat import (
    Circuit, CircuitError, ConstraintSet, Gate, GateKind, backward, forward, tseytin_encode,
)

from helpers import brute_force_solutions, load, naive_eval, random_circuit


def test_c15_is_valid():
    assert load("c15.v").validate() == []


def test_self_loop_reports_cycle():
    c = Circuit(["a", "y"], [0], [1], [Gate(GateKind.NOT, (1,), 1)])
    diags = c.validate()
    assert len(diags) == 1 and "cycle" in diags[0]


def test_two_gate_cycle_reports_cycle():
    c = Circuit(
        ["a", "x", "y"],
        [0],
        [2],
        [Gate(GateKind.AND, (0, 2), 1), Gate(GateKind.NOT, (1,), 2)],
    )
    assert any("cycle" in d for d in c.validate())


def test_multiple_drivers_diagnostic():
    c = Circuit(
        ["a", "b", "x"],
        [0, 1],
        [2],
        [Gate(GateKind.NOT, (0,), 2), Gate(GateKind.NOT, (1,), 2)],
    )
    assert any("multiple drivers" in d and "'x'" in d for d in c.validate())


def test_driven_primary_input_diagnostic():
    # Each net has one driver, so only the driven input shows the fault.
    c = Circuit(["a", "b", "y"], [0, 1], [2], [Gate(GateKind.NOT, (1,), 0), Gate(GateKind.BUF, (0,), 2)])
    assert c.validate() == ["multiple drivers: primary input 'a' is also driven by gate 0"]


def test_dangling_net_diagnostic():
    c = Circuit(["a", "z", "y"], [0], [2], [Gate(GateKind.AND, (0, 1), 2)])
    assert any("dangling" in d and "'z'" in d for d in c.validate())


def test_bad_fan_in_diagnostic():
    c = Circuit(["a", "b", "y"], [0, 1], [2], [Gate(GateKind.NOT, (0, 1), 2)])
    assert any("bad fan-in" in d for d in c.validate())


@pytest.mark.parametrize("valid", [True, False])
def test_validate_returns_a_new_list_each_call(valid):
    c = load("c15.v") if valid else Circuit(["a", "y"], [0], [1], [Gate(GateKind.NOT, (1,), 1)])
    first = c.validate()
    want = list(first)
    first.append("appended by the caller")
    second = c.validate()
    assert second == want and second is not first


class TestTopoOrder:
    def test_c15_order(self):
        c = load("c15.v")
        order = c.topo_order()
        names = [c.name(c.gates[gi].output) for gi in order]
        assert names == ["G10", "G11", "G16", "G19", "G22"]

    def test_single_gate(self):
        c = Circuit(["a", "y"], [0], [1], [Gate(GateKind.BUF, (0,), 1)])
        assert c.topo_order() == [0]

    def test_ties_broken_by_source_order(self):
        c = Circuit(
            ["a", "x", "y"],
            [0],
            [1, 2],
            [Gate(GateKind.NOT, (0,), 2), Gate(GateKind.BUF, (0,), 1)],
        )
        assert c.topo_order() == [0, 1]

    def test_every_edge_goes_forward_on_random_dags(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = random_circuit(rng, n_inputs=4, n_gates=50)
            order = c.topo_order()
            assert sorted(order) == list(range(len(c.gates)))
            pos = {c.gates[gi].output: k for k, gi in enumerate(order)}
            for k, gi in enumerate(order):
                for net in c.gates[gi].inputs:
                    if net in c.driver:
                        assert pos[net] < k

    def test_cycle_raises_with_net_names(self):
        c = Circuit(["a", "y"], [0], [1], [Gate(GateKind.NOT, (1,), 1)])
        with pytest.raises(CircuitError, match="cycle"):
            c.topo_order()


def shuffled(c: Circuit, rng: np.random.Generator) -> Circuit:
    """`c` with its net ids shuffled, plus a net driven by CONST1 and one that nothing drives."""
    perm = [int(n) for n in rng.permutation(c.num_nets + 2)]  # old id -> new id
    names = [""] * len(perm)
    for old, name in enumerate(c.names + ["k", "floating"]):
        names[perm[old]] = name
    gates = [Gate(g.kind, tuple(perm[n] for n in g.inputs), perm[g.output]) for g in c.gates]
    gates.append(Gate(GateKind.CONST1, (), perm[c.num_nets]))
    return Circuit(names, [perm[n] for n in c.primary_inputs],
                   [perm[n] for n in c.primary_outputs], gates)


def naive_depth(c: Circuit) -> int:
    """Longest input-to-output gate chain, by recursion over each net's driver."""
    @functools.cache
    def level(net: int) -> int:
        if net in c.primary_inputs or net not in c.driver:
            return 0
        return 1 + max((level(n) for n in c.gates[c.driver[net]].inputs), default=0)

    return max(map(level, range(c.num_nets)), default=0)


def random_and_shuffled_circuits(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = random_circuit(rng, n_inputs=5, n_gates=int(rng.integers(1, 40)), max_fan_in=4)
        yield c
        yield shuffled(c, rng)


class TestLowered:
    def test_lists_the_topological_gates_with_their_semantics(self):
        seen = set()
        for c in random_and_shuffled_circuits(3, 30):
            low = c.lowered()
            gates = [c.gates[gi] for gi in c.topo_order()]
            assert low.gates == [(g.kind.reduction, g.kind.inverted(len(g.inputs)), g.inputs, g.output)
                                 for g in gates]
            assert low.width == max(len(g.inputs) for g in c.gates)
            driven = set(c.primary_inputs) | {g.output for g in c.gates}
            assert low.undriven == [n for n in range(c.num_nets) if n not in driven]
            assert low.leading_inputs == (c.primary_inputs == list(range(c.num_inputs)))
            assert c.lowered() is low
            seen.add((bool(low.undriven), low.leading_inputs))
        assert seen == {(False, True), (True, False)}

    def test_depth_is_the_longest_gate_chain(self):
        for c in random_and_shuffled_circuits(5, 30):
            assert c.depth() == naive_depth(c)

    def test_evaluators_do_not_read_gate_kinds_after_lowering(self, monkeypatch):
        rng = np.random.default_rng(8)
        c = shuffled(random_circuit(rng, n_inputs=5, n_gates=40, max_fan_in=4), rng)
        P = rng.uniform(size=(6, c.num_inputs))
        seeds = {net: np.ones(6) for net in c.primary_outputs}

        def run():
            tape = forward(c, P)
            arrays = (c.eval_batch(ALL_ROWS5, nets=[g.output for g in c.gates]), tape,
                      backward(c, tape, seeds))
            return arrays, (tseytin_encode(c).clauses, c.depth())

        before_arrays, before = run()

        def no_kind_reads(*_):
            raise AssertionError("a GateKind was read after lowering")

        monkeypatch.setattr(GateKind, "reduction", property(no_kind_reads))
        monkeypatch.setattr(GateKind, "inverted", no_kind_reads)
        after_arrays, after = run()
        assert after == before
        for old, new in zip(before_arrays, after_arrays):
            assert np.array_equal(old, new)


ALL_ROWS5 = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)


class TestEvalDiscrete:
    def test_c15_g19_example(self):
        c = load("c15.v")  # inputs G1, G2, G3, G6, G7
        rows = [[g1, g2, 0, 1, 1] for g1 in (0, 1) for g2 in (0, 1)]
        assert c.eval_batch(np.array(rows), nets=[c.name_to_id["G19"]]).tolist() == [[1]] * 4

    def test_and_all_zero(self):
        c = Circuit(["a", "b", "y"], [0, 1], [2], [Gate(GateKind.AND, (0, 1), 2)])
        assert c.eval_batch(np.array([[0, 0]]))[0, 0] == 0

    def test_c17_truth_table_against_naive_evaluator(self):
        c = load("c17.bench")
        names = [c.name(n) for n in c.primary_inputs]
        got = c.eval_batch(ALL_ROWS5, nets=list(range(c.num_nets)))
        for bits, row in zip(ALL_ROWS5.tolist(), got.tolist()):
            assert dict(zip(c.names, row)) == naive_eval(c, dict(zip(names, bits)))

    def test_c17_hand_evaluated_rows(self):
        # Four rows checked by hand through the six NANDs.
        c = load("c17.bench")
        assert [c.name(n) for n in c.primary_inputs] == ["1", "2", "3", "6", "7"]
        cases = [
            ((0, 0, 0, 0, 0), (0, 0)),
            ((1, 1, 1, 1, 1), (1, 0)),
            ((0, 1, 1, 1, 0), (0, 0)),
            ((1, 0, 1, 0, 1), (1, 1)),
        ]
        rows = np.array([bits for bits, _ in cases])
        got = c.eval_batch(rows, nets=[c.name_to_id["22"], c.name_to_id["23"]])
        assert [tuple(r) for r in got.tolist()] == [out for _, out in cases]

    def test_random_circuits_match_naive_evaluator(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = random_circuit(rng, n_inputs=5, n_gates=20)
            got = c.eval_batch(ALL_ROWS5, nets=list(range(c.num_nets)))
            for bits, row in zip(ALL_ROWS5.tolist(), got.tolist()):
                assignment = {f"i{k}": b for k, b in enumerate(bits)}
                assert dict(zip(c.names, row)) == naive_eval(c, assignment)

    def test_eval_batch_matches_eval_discrete(self):
        # The primary outputs of every row against the independent evaluator.
        c = load("c15.v")
        names = [c.name(n) for n in c.primary_inputs]
        for row, got in zip(ALL_ROWS5.tolist(), c.eval_batch(ALL_ROWS5)):
            vals = naive_eval(c, dict(zip(names, row)))
            assert [vals[c.name(n)] for n in c.primary_outputs] == list(got)


def cone_inputs(c, cs):
    """The primary inputs that `Circuit.compile` puts in the cone of the pins."""
    return {c.primary_inputs[col] for col in c.compile(cs).input_cols}


class TestSupportCone:
    def test_c15_cone_of_g19(self):
        c = load("c15.v")
        cone = cone_inputs(c, ConstraintSet.from_names(c, {"G19": 1}))
        assert {c.name(n) for n in cone} == {"G3", "G6", "G7"}

    def test_pin_on_primary_input(self):
        c = load("c15.v")
        cone = cone_inputs(c, ConstraintSet.from_names(c, {"G1": 0}))
        assert {c.name(n) for n in cone} == {"G1"}

    def test_all_outputs_pinned_reaches_all_feeding_inputs(self):
        rng = np.random.default_rng(3)
        c = random_circuit(rng, n_inputs=6, n_gates=40)
        pins = {c.name(n): 1 for n in c.primary_outputs}
        cone = cone_inputs(c, ConstraintSet.from_names(c, pins))
        # Reference: reverse reachability computed over the edge list.
        reach = set(c.primary_outputs)
        frontier = list(reach)
        while frontier:
            net = frontier.pop()
            gi = c.driver.get(net)
            if gi is not None:
                for src in c.gates[gi].inputs:
                    if src not in reach:
                        reach.add(src)
                        frontier.append(src)
        assert cone == reach & set(c.primary_inputs)

    def test_flipping_non_cone_input_never_changes_pinned_nets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = random_circuit(rng, n_inputs=6, n_gates=25)
            pin_net = c.primary_outputs[0]
            cs = ConstraintSet({pin_net: 1})
            cone = cone_inputs(c, cs)
            rows = np.array(list(itertools.product((0, 1), repeat=6)), dtype=np.uint8)
            base = c.eval_batch(rows, nets=[pin_net])
            for k, net in enumerate(c.primary_inputs):
                if net in cone:
                    continue
                flipped = rows.copy()
                flipped[:, k] ^= 1
                assert np.array_equal(c.eval_batch(flipped, nets=[pin_net]), base)


def test_constraint_on_unknown_net_rejected():
    c = load("c15.v")
    with pytest.raises(CircuitError, match="nosuch"):
        ConstraintSet.from_names(c, {"nosuch": 1})


def test_brute_force_c17_census():
    c = load("c17.bench")
    cs = ConstraintSet.from_names(c, {"23": 1})
    assert len(brute_force_solutions(c, cs)) == 18
