import itertools

import numpy as np
import pytest

from circsat import Circuit, CircuitError, ConstraintSet, Gate, GateKind

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
