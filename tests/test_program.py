"""The compiled cone program against the whole circuit.

`Circuit.compile` renumbers the fan-in cone of the pinned nets densely; the
relaxed passes and the oracle run on that dense circuit in the sampler.  These
tests check it bit for bit against the same passes over the whole circuit,
check constant folding, and show that the relaxed forward needs no clipping.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circsat import (
    Circuit,
    CircuitError,
    ConstraintSet,
    Gate,
    GateKind,
    SamplerConfig,
    backward,
    forward,
    run_sampling,
)

from helpers import load, one_gate, random_circuit, solutions_by_key, support_cone

EDGE_PROBS = np.array([0.0, 1.0, 5e-324, 1e-300, 0.5, np.nextafter(0.5, 0.0),
                       np.nextafter(1.0, 0.0), 1.0 - 1e-12, 1e-12, 0.25])


def probabilities(rng, b, n):
    """Uniform draws with a third of the entries replaced by edge values, 0 and 1 included."""
    P = rng.uniform(0.0, 1.0, size=(b, n))
    edge = rng.random((b, n)) < 1 / 3
    P[edge] = rng.choice(EDGE_PROBS, size=int(edge.sum()))
    return P


def local_to_global(circuit, cone):
    return [circuit.name_to_id[name] for name in cone.circuit.names]


@settings(max_examples=60, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 7),
    n_gates=st.integers(1, 30),
    n_pins=st.integers(1, 4),
)
def test_program_equals_whole_circuit_at_every_cone_net(circuit_seed, n_inputs, n_gates, n_pins):
    rng = np.random.default_rng(circuit_seed)
    c = random_circuit(rng, n_inputs=n_inputs, n_gates=n_gates)
    nets = rng.choice(c.num_nets, size=min(n_pins, c.num_nets), replace=False)
    cs = ConstraintSet({int(net): int(rng.integers(0, 2)) for net in nets})
    cone = c.compile(cs)
    prog = cone.circuit
    glob = local_to_global(c, cone)

    # Dense numbering: cone inputs first in primary-input order, then gates in topological order.
    assert prog.primary_inputs == list(range(prog.num_inputs))
    assert [c.primary_inputs[col] for col in cone.input_cols] == glob[: prog.num_inputs]
    assert sorted(cone.input_cols) == cone.input_cols
    assert {c.primary_inputs[col] for col in cone.input_cols} == support_cone(c, cs)
    assert all(max(g.inputs) < g.output for g in prog.gates)
    assert [g.output for g in prog.gates] == list(range(prog.num_inputs, prog.num_nets))
    assert {glob[net]: bit for net, bit in cone.pins.items()} == cs.pins

    P = probabilities(rng, 16, c.num_inputs)
    whole = forward(c, P)
    local = forward(prog, P[:, cone.input_cols])
    assert local.tobytes() == whole[glob].tobytes()

    seeds = {net: rng.normal(size=16) for net in cs.pins}
    dP = backward(c, whole, seeds)
    dU = backward(prog, local, {glob.index(net): s for net, s in seeds.items()})
    assert np.ascontiguousarray(dU).tobytes() == np.ascontiguousarray(dP[:, cone.input_cols]).tobytes()
    outside = [col for col in range(c.num_inputs) if col not in cone.input_cols]
    assert np.all(dP[:, outside] == 0.0)

    bits = rng.integers(0, 2, size=(64, c.num_inputs), dtype=np.uint8)
    pins = list(cs.pins)
    assert np.array_equal(
        prog.eval_batch(bits[:, cone.input_cols], nets=[glob.index(n) for n in pins]),
        c.eval_batch(bits, nets=pins),
    )


@settings(max_examples=60, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 7),
    n_gates=st.integers(1, 30),
    b=st.integers(1, 20),
    spare=st.integers(0, 5),
)
def test_passes_into_reused_buffers_equal_allocating_passes(circuit_seed, n_inputs, n_gates, b, spare):
    # The sampler hands forward and backward one (nets, chunk rows) buffer
    # pair for a whole run; a short chunk uses its leading columns.
    rng = np.random.default_rng(circuit_seed)
    c = random_circuit(rng, n_inputs=n_inputs, n_gates=n_gates)
    net = int(rng.integers(c.num_nets))
    cone = c.compile(ConstraintSet({net: int(rng.integers(0, 2))}))
    P = probabilities(rng, b, c.num_inputs)
    seed = rng.normal(size=b)
    cases = [(c, P, net), (cone.circuit, P[:, cone.input_cols], next(iter(cone.pins)))]
    for circuit, probs, pin in cases:
        tape = forward(circuit, probs)
        grad = backward(circuit, tape, {pin: seed})
        tape_buf = np.full((circuit.num_nets, b + spare), np.nan)
        adj_buf = np.full((circuit.num_nets, b + spare), np.nan)
        for _ in range(2):  # the second pass finds the first one's values in the buffers
            into = forward(circuit, probs, out=tape_buf)
            assert np.shares_memory(into, tape_buf)
            assert into.tobytes() == tape.tobytes()
            grad_into = backward(circuit, into, {pin: seed}, out=adj_buf)
            assert not np.shares_memory(grad_into, adj_buf)
            assert grad_into.tobytes() == grad.tobytes()
        assert np.isnan(tape_buf[:, b:]).all() and np.isnan(adj_buf[:, b:]).all()


def test_forward_into_a_buffer_zeroes_undriven_nets():
    # u is neither an input nor driven: the allocating forward gives it 0.
    c = Circuit(["a", "u", "y"], [0], [2], [Gate(GateKind.AND, (0, 1), 2)])
    P = np.array([[0.25], [1.0]])
    buf = np.full((3, 2), np.nan)
    assert forward(c, P, out=buf).tobytes() == forward(c, P).tobytes()
    assert np.all(buf[1] == 0.0)


def test_buffers_of_the_wrong_shape_are_refused():
    c = random_circuit(np.random.default_rng(3), n_inputs=3, n_gates=4)
    P = np.full((5, 3), 0.5)
    tape = forward(c, P)
    for shape in [(c.num_nets - 1, 5), (c.num_nets, 4)]:
        with pytest.raises(CircuitError, match="buffer of shape"):
            forward(c, P, out=np.empty(shape))
        with pytest.raises(CircuitError, match="buffer of shape"):
            backward(c, tape, {c.num_nets - 1: np.ones(5)}, out=np.empty(shape))


def _clipped_forward(circuit, P):
    """The relaxed forward written out per kind, clipping every gate output to [0, 1]."""
    values = np.zeros((circuit.num_nets, P.shape[0]))
    values[circuit.primary_inputs] = P.T
    factor = {"and": lambda p: p, "or": lambda p: 1.0 - p, "xor": lambda p: 1.0 - 2.0 * p}
    one = {"and": lambda c: c, "or": lambda c: 1.0 - c, "xor": lambda c: 0.5 - 0.5 * c}
    zero = {"and": lambda c: 1.0 - c, "or": lambda c: c, "xor": lambda c: 0.5 + 0.5 * c}
    for gi in circuit.topo_order():
        g = circuit.gates[gi]
        op = g.kind.reduction
        c = np.ones(P.shape[0])
        for n in g.inputs:
            c *= factor[op](values[n])
        row = zero[op](c) if g.kind.inverted(len(g.inputs)) else one[op](c)
        values[g.output] = np.clip(row, 0.0, 1.0)
    return values


def test_forward_needs_no_clip_one_gate_at_edge_probabilities():
    for kind in GateKind:
        for fan_in in range(5):
            if not kind.arity_ok(fan_in):
                continue
            c = one_gate(kind, fan_in)
            if fan_in <= 3:  # every combination of edge values
                points = list(itertools.product(EDGE_PROBS, repeat=fan_in))
            else:
                points = np.random.default_rng(fan_in).choice(EDGE_PROBS, size=(4096, fan_in))
            P = np.array(points, dtype=float).reshape(len(points), fan_in)
            values = forward(c, P)
            assert values.tobytes() == _clipped_forward(c, P).tobytes(), (kind, fan_in)
            assert np.all((values >= 0.0) & (values <= 1.0))


def test_forward_needs_no_clip_random_circuits():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        c = random_circuit(rng, n_inputs=n, n_gates=int(rng.integers(1, 40)), max_fan_in=4)
        P = probabilities(rng, 256, n)
        assert forward(c, P).tobytes() == _clipped_forward(c, P).tobytes()


def _constant_circuit():
    """a, b inputs; k = CONST1, nk = NOT(k), y = BUF(k), z = AND(a, b, k), w = OR(a, nk)."""
    names = ["a", "b", "k", "nk", "y", "z", "w"]
    gates = [
        Gate(GateKind.CONST1, (), 2),
        Gate(GateKind.NOT, (2,), 3),
        Gate(GateKind.BUF, (2,), 4),
        Gate(GateKind.AND, (0, 1, 2), 5),
        Gate(GateKind.OR, (0, 3), 6),
    ]
    return Circuit(names, [0, 1], [4, 5, 6], gates)


def test_pin_on_a_net_that_is_neither_an_input_nor_driven_is_named():
    # w is declared but no gate drives or reads it, so the circuit is valid.
    c = Circuit(["a", "y", "w"], [0], [1], [Gate(GateKind.NOT, (0,), 1)])
    assert c.validate() == []
    for pins in ({"w": 1}, {"y": 0, "w": 0}):
        with pytest.raises(CircuitError, match="pinned net 'w' is neither an input nor driven"):
            c.compile(ConstraintSet.from_names(c, pins))


class TestConstantPins:
    def test_pin_contradicting_a_constant_is_unsatisfiable(self):
        c = _constant_circuit()
        for pins in ({"y": 0}, {"nk": 1}, {"y": 0, "z": 1}, {"z": 1, "y": 0}):
            with pytest.raises(CircuitError, match="unsatisfiable: net (y|nk) is constant"):
                run_sampling(c, ConstraintSet.from_names(c, pins), SamplerConfig(batch_size=4))

    def test_only_constant_pins_that_hold_is_an_error_naming_it(self):
        c = _constant_circuit()
        cs = ConstraintSet.from_names(c, {"y": 1, "nk": 0, "k": 1})
        assert c.compile(cs).input_cols == []
        with pytest.raises(CircuitError, match="every assignment meets the pins"):
            run_sampling(c, cs, SamplerConfig(batch_size=4))

    def test_pin_on_a_constant_stays_as_a_constant_gate(self):
        c = _constant_circuit()
        cone = c.compile(ConstraintSet.from_names(c, {"y": 0, "z": 1}))
        assert cone.circuit.names == ["a", "b", "k", "y", "z"]
        assert cone.pins == {3: 0, 4: 1}
        assert cone.constants == {2: 1, 3: 1}
        assert cone.circuit.gates[1] == Gate(GateKind.CONST1, (), 3)
        rows = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        assert cone.circuit.eval_batch(rows, nets=[3, 4]).tolist() == [[1, 1], [1, 0]]

    def test_pin_that_a_constant_meets_changes_no_sample(self):
        c = _constant_circuit()
        cfg = SamplerConfig(batch_size=300, iterations=3, seed=2, dedup_scope="all")
        both = run_sampling(c, ConstraintSet.from_names(c, {"y": 1, "z": 1}), cfg)
        alone = run_sampling(c, ConstraintSet.from_names(c, {"z": 1}), cfg)
        assert list(solutions_by_key(both)) == list(solutions_by_key(alone))
        assert [r.tolist() for r in solutions_by_key(both).values()] == [[1, 1]]
        assert [(s.new_unique, s.loss_mean) for s in both.stats] == [
            (s.new_unique, s.loss_mean) for s in alone.stats
        ]

    def test_program_is_freed_with_its_source_without_the_cyclic_collector(self):
        # Nothing in a program refers back to it, so reference counting frees it.
        c = load("c17.bench")
        program = weakref.ref(c.compile(ConstraintSet.from_names(c, {"23": 1})).circuit)
        gc.disable()
        try:
            del c
            assert program() is None
        finally:
            gc.enable()

    def test_constant_net_in_the_cone_becomes_one_constant_gate(self):
        c = _constant_circuit()
        cone = c.compile(ConstraintSet.from_names(c, {"w": 1}))
        # nk = NOT(CONST1) is folded to CONST0; k itself leaves the cone.
        assert cone.circuit.names == ["a", "nk", "w"]
        assert cone.constants == {1: 0}
        assert [(g.kind, g.inputs) for g in cone.circuit.gates] == [
            (GateKind.CONST0, ()),
            (GateKind.OR, (0, 1)),
        ]
        rows = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        assert np.array_equal(
            cone.circuit.eval_batch(rows[:, cone.input_cols], nets=[2]),
            c.eval_batch(rows, nets=[6]),
        )

    def test_folded_constants_have_the_same_relaxed_values(self):
        c = _constant_circuit()
        cone = c.compile(ConstraintSet.from_names(c, {"w": 1, "z": 0}))
        P = probabilities(np.random.default_rng(5), 32, 2)
        whole = forward(c, P)
        local = forward(cone.circuit, P[:, cone.input_cols])
        assert local.tobytes() == whole[local_to_global(c, cone)].tobytes()
