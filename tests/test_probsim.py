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
    backward,
    forward,
)
from circsat.probsim import Workspace

from helpers import (
    fd_input_grads,
    load,
    naive_eval,
    nan_workspace,
    one_gate,
    random_circuit,
    reference_backward,
    reference_forward,
    scalar_loss,
)

BINARY_KINDS = [
    GateKind.NOT, GateKind.BUF, GateKind.AND, GateKind.OR,
    GateKind.NAND, GateKind.NOR, GateKind.XOR, GateKind.XNOR,
]


class TestGateProb:
    # One gate's output probability: the last row of its tape.
    def test_worked_example_xor(self):
        assert forward(one_gate(GateKind.XOR, 2), [[0.5250, 0.6225]])[-1, 0] == pytest.approx(0.4939, abs=1e-4)

    def test_worked_example_and(self):
        assert forward(one_gate(GateKind.AND, 2), [[0.4939, 0.3318]])[-1, 0] == pytest.approx(0.1639, abs=1e-4)

    def test_nand_binary_point(self):
        assert forward(one_gate(GateKind.NAND, 2), [[1.0, 1.0]])[-1, 0] == 0.0

    def test_three_input_xor_at_half(self):
        # Fold of the binary formula; equals the parity probability 0.5.
        assert forward(one_gate(GateKind.XOR, 3), [[0.5, 0.5, 0.5]])[-1, 0] == pytest.approx(0.5)

    def test_arity_violation(self):
        assert any("bad fan-in" in d for d in one_gate(GateKind.NOT, 2).validate())

    @given(
        kind=st.sampled_from([k for k in BINARY_KINDS if k not in (GateKind.NOT, GateKind.BUF)]),
        probs=st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_preserved(self, kind, probs):
        assert 0.0 <= forward(one_gate(kind, len(probs)), [probs])[-1, 0] <= 1.0

    @given(
        kind=st.sampled_from(BINARY_KINDS),
        bits=st.lists(st.integers(0, 1), min_size=2, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_binary_points_match_discrete_gate(self, kind, bits):
        if kind in (GateKind.NOT, GateKind.BUF):
            bits = bits[:1]
        assert forward(one_gate(kind, len(bits)), [bits])[-1, 0] == kind.truth(bits)


class TestGateGrad:
    # d(output prob)/d(input probs) of one gate: backward from a unit seed on its output.
    def test_worked_example_xor_second_input(self):
        c = one_gate(GateKind.XOR, 2)
        got = backward(c, forward(c, [[0.5250, 0.6225]]), {2: np.ones(1)})[0, 0]
        assert got == pytest.approx(1 - 2 * 0.6225, abs=1e-12)

    def test_not_is_minus_one(self):
        c = one_gate(GateKind.NOT, 1)
        assert backward(c, forward(c, [[0.37]]), {1: np.ones(1)})[0, 0] == -1.0

    def test_three_input_and_by_finite_difference(self):
        c = one_gate(GateKind.AND, 3)
        got = backward(c, forward(c, [[0.5, 0.5, 0.5]]), {3: np.ones(1)})[0, 0]
        assert got == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("kind", BINARY_KINDS)
    @pytest.mark.parametrize("fan_in", [1, 2, 3, 4])
    def test_matches_central_finite_difference(self, kind, fan_in):
        if kind in (GateKind.NOT, GateKind.BUF):
            if fan_in != 1:
                pytest.skip("fan-in fixed at 1")
        elif fan_in < 2:
            pytest.skip("fan-in >= 2")
        rng = np.random.default_rng(hash((kind.value, fan_in)) % 2**32)
        P = rng.uniform(0.1, 0.9, size=(1, fan_in))
        c = one_gate(kind, fan_in)
        grad = backward(c, forward(c, P), {fan_in: np.ones(1)})[0]
        h = 1e-6
        for i in range(fan_in):
            up, down = P.copy(), P.copy()
            up[0, i] += h
            down[0, i] -= h
            fd = (forward(c, up)[-1, 0] - forward(c, down)[-1, 0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-7)


class TestForward:
    def test_worked_example_tape(self):
        c = load("c15.v")
        cols = {c.name(n): i for i, n in enumerate(c.primary_inputs)}
        P = np.full((2, 5), 0.5)
        P[:, cols["G3"]] = [0.5250, 0.4502]
        P[:, cols["G6"]] = [0.6225, 0.4013]
        P[:, cols["G7"]] = [0.3318, 0.3100]
        tape = forward(c, P)
        assert tape[c.name_to_id["G11"]] == pytest.approx([0.4939, 0.4902], abs=1e-4)
        assert tape[c.name_to_id["G19"]] == pytest.approx([0.1639, 0.1520], abs=1e-4)

    def test_binary_rows_equal_discrete_eval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = random_circuit(rng, n_inputs=6, n_gates=30)
            rows = rng.integers(0, 2, size=(64, 6))
            tape = forward(c, rows.astype(float))
            ref = c.eval_batch(rows, nets=list(range(c.num_nets)))
            assert np.array_equal(tape.T, ref)

    def test_range_preservation_random_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            c = random_circuit(rng, n_inputs=5, n_gates=30)
            P = rng.uniform(0, 1, size=(25, 5))
            tape = forward(c, P)
            assert np.all(tape >= 0.0) and np.all(tape <= 1.0)

    def test_outputs_shape(self):
        c = load("c15.v")
        tape = forward(c, np.full((7, 5), 0.5))
        assert tape[c.primary_outputs].T.shape == (7, 2)

    def test_batch_rows_independent(self):
        c = load("c15.v")
        rng = np.random.default_rng(4)
        P = rng.uniform(0, 1, size=(16, 5))
        perm = rng.permutation(16)
        t1 = forward(c, P)
        t2 = forward(c, P[perm])
        assert np.array_equal(t1[:, perm], t2)

    def test_shape_mismatch(self):
        c = load("c15.v")
        with pytest.raises(CircuitError):
            forward(c, np.full((3, 4), 0.5))


class TestBackward:
    def test_worked_example_seeded_gradient(self):
        c = load("c15.v")
        cols = {c.name(n): i for i, n in enumerate(c.primary_inputs)}
        P = np.full((2, 5), 0.5)
        P[:, cols["G3"]] = [0.5250, 0.4502]
        P[:, cols["G6"]] = [0.6225, 0.4013]
        P[:, cols["G7"]] = [0.3318, 0.3100]
        tape = forward(c, P)
        g19 = c.name_to_id["G19"]
        seeds = {g19: 2.0 * (tape[g19] - 1.0)}
        dP = backward(c, tape, seeds)
        # dL/dp_G3 then the sigmoid factor sigma'(0.1) = 0.5250 * 0.4750.
        assert dP[0, cols["G3"]] * 0.5250 * 0.4750 == pytest.approx(0.0339, abs=1e-4)
        # G1 and G2 are outside the cone of G19.
        assert dP[:, cols["G1"]].tolist() == [0.0, 0.0]
        assert dP[:, cols["G2"]].tolist() == [0.0, 0.0]

    def test_zero_seed_gives_zero_gradient(self):
        c = load("c15.v")
        tape = forward(c, np.full((3, 5), 0.4))
        dP = backward(c, tape, {c.name_to_id["G19"]: np.zeros(3)})
        assert np.all(dP == 0.0)

    def test_fanout_accumulates_both_paths(self):
        # Diamond: s feeds two gates that reconverge in an AND.
        #   u = NOT(s), w = BUF(s), y = AND(u, w)
        c = Circuit(
            ["s", "u", "w", "y"],
            [0],
            [3],
            [
                Gate(GateKind.NOT, (0,), 1),
                Gate(GateKind.BUF, (0,), 2),
                Gate(GateKind.AND, (1, 2), 3),
            ],
        )
        p = 0.3
        tape = forward(c, np.array([[p]]))
        dP = backward(c, tape, {3: np.ones(1)})
        # y = (1-s)*s: dy/ds = 1 - 2s, the sum of both path contributions.
        assert dP[0, 0] == pytest.approx(1 - 2 * p, abs=1e-12)

    def test_unknown_pinned_net_rejected(self):
        c = load("c15.v")
        tape = forward(c, np.full((1, 5), 0.5))
        with pytest.raises(CircuitError):
            backward(c, tape, {99: np.ones(1)})

    def test_tape_without_a_row_per_net_rejected(self):
        c = load("c17.bench")
        tape = forward(c, np.full((3, 5), 0.5))
        out = c.primary_outputs[0]
        for short in (tape[:-2], tape[0]):
            with pytest.raises(CircuitError, match=r"expected a tape of shape \(11, b\)"):
                backward(c, short, {out: np.ones(3)})
        with pytest.raises(CircuitError, match=r"expected a tape of shape \(11, b\), got \(9, 3\)"):
            Workspace(c, 3, tape=tape[:-2])

    @pytest.mark.parametrize("width", [1, 2, 4, 5])
    def test_seed_of_another_width_than_the_tape_rejected(self, width):
        c = load("c17.bench")
        tape = forward(c, np.full((3, 5), 0.5))
        seeds = {c.primary_outputs[0]: np.ones(3), c.primary_outputs[1]: np.ones(width)}
        with pytest.raises(CircuitError, match=rf"seed of net {c.primary_outputs[1]} has shape "
                                               rf"\({width},\), not \(3,\)"):
            backward(c, tape, seeds)
        narrow = forward(c, np.full((2, 5), 0.5))
        with pytest.raises(CircuitError, match=r"has shape \(3,\), not \(2,\)"):
            backward(c, narrow, {c.primary_outputs[0]: np.ones(3)})

    def test_matches_finite_differences_on_random_circuits(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_circuit(rng, n_inputs=5, n_gates=int(rng.integers(5, 51)))
            cs = ConstraintSet({net: int(rng.integers(0, 2)) for net in c.primary_outputs})
            P = rng.uniform(0.05, 0.95, size=(2, 5))
            tape = forward(c, P)
            seeds = {net: 2.0 * (tape[net] - t) for net, t in cs.pins.items()}
            got = backward(c, tape, seeds)
            want = fd_input_grads(c, P, cs)
            err = np.abs(got - want)
            ok = (err <= 1e-5 * np.abs(want)) | (err <= 1e-8)
            assert np.all(ok)

    def test_permuting_rows_permutes_gradients(self):
        c = load("c15.v")
        rng = np.random.default_rng(8)
        P = rng.uniform(0.1, 0.9, size=(10, 5))
        perm = rng.permutation(10)
        g19 = c.name_to_id["G19"]

        def grads(Pm):
            tape = forward(c, Pm)
            return backward(c, tape, {g19: 2.0 * (tape[g19] - 1.0)})

        assert np.array_equal(grads(P)[perm], grads(P[perm]))


def test_exhaustive_binary_exactness_small_circuits():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        c = random_circuit(rng, n_inputs=n, n_gates=20)
        rows = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        tape = forward(c, rows)
        ref = c.eval_batch(rows.astype(np.uint8), nets=list(range(c.num_nets)))
        assert np.array_equal(tape.T, ref)


def _lowering_case(seed: int) -> tuple[Circuit, dict[int, int]]:
    """A random circuit with the shapes the lowered passes special-case, and pins on it.

    On top of `random_circuit`: gates that list one net twice, XNORs of
    fan-in 2, 3 and 4, and an input that feeds nothing, so that it lies
    outside every seeded fan-in.  The pins hold one gate output and one of
    its inputs that is itself a gate output, plus a random gate output.
    """
    rng = np.random.default_rng(seed)
    base = random_circuit(rng, n_inputs=int(rng.integers(2, 7)), n_gates=int(rng.integers(1, 25)))
    names = base.names + ["lonely"]
    gates = list(base.gates)

    def pick() -> int:
        return int(rng.integers(base.num_nets))

    for kind, ins in [
        (GateKind.AND, "xx"), (GateKind.OR, "xyx"), (GateKind.XOR, "xx"), (GateKind.NAND, "yxx"),
        (GateKind.XNOR, "xy"), (GateKind.XNOR, "xyz"), (GateKind.XNOR, "xyzw"), (GateKind.NOR, "xx"),
    ]:
        nets = {ch: pick() for ch in dict.fromkeys(ins)}
        names.append(f"e{len(gates)}")
        gates.append(Gate(kind, tuple(nets[ch] for ch in ins), len(names) - 1))
    outs = sorted(set(base.primary_outputs) | {g.output for g in gates[len(base.gates):]})
    c = Circuit(names, base.primary_inputs + [base.num_nets], outs, gates)
    driven = [g for g in gates if g.inputs and g.inputs[0] in c.driver]
    pins = {int(driven[rng.integers(len(driven))].output): 1} if driven else {}
    if driven:
        g = c.gates[c.driver[next(iter(pins))]]
        pins[g.inputs[0]] = 0
    pins[gates[int(rng.integers(len(gates)))].output] = 1
    return c, pins


# Zero, one, the smallest denormal, a tiny normal, a value below the
# rounding unit and the largest value below one, at each precision.
_EDGE_PROBS = {
    np.float64: np.array([0.0, 1.0, 5e-324, 1e-300, 1e-17, 1.0 - 2.0**-53, 0.5]),
    np.float32: np.array([0.0, 1.0, 1e-45, 1e-38, 1e-8, 1.0 - 2.0**-24, 0.5], np.float32),
}
_LOWERING_CASES = dict(seed=st.integers(0, 2**32 - 1),
                       probs=st.sampled_from(["random", "binary", "edge"]), b=st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(**_LOWERING_CASES)
def test_lowered_passes_equal_the_per_gate_reference_bitwise(seed, probs, b):
    _check_lowered_passes(seed, probs, b, np.float64)


@settings(max_examples=80, deadline=None)
@given(**_LOWERING_CASES)
def test_lowered_float32_passes_equal_the_per_gate_reference_bitwise(seed, probs, b):
    # The sampler's precision; the reference passes run at their input's dtype.
    _check_lowered_passes(seed, probs, b, np.float32)


def _check_lowered_passes(seed, probs, b, dtype):
    c, pins = _lowering_case(seed)
    rng = np.random.default_rng(seed + 1)
    n = c.num_inputs
    if probs == "random":
        P = rng.uniform(0.0, 1.0, size=(b, n)).astype(dtype)
    elif probs == "binary":
        P = rng.integers(0, 2, size=(b, n)).astype(dtype)
    else:
        P = rng.choice(_EDGE_PROBS[dtype], size=(b, n))
    seeds = {net: rng.normal(size=b) for net in pins}  # float64: cast to the adjoint's dtype
    want_tape = reference_forward(c, P)
    want_grad = reference_backward(c, want_tape, seeds)
    assert want_tape.dtype == want_grad.dtype == dtype
    # A workspace made for each call, and one wider than the batch and full of NaN.
    for ws in (None, nan_workspace(c, b + 3, dtype)):
        tape = forward(c, P, ws)
        assert tape.dtype == dtype
        assert np.array_equal(tape, want_tape)
        grad = backward(c, tape, seeds, ws)
        assert grad.dtype == dtype
        assert np.array_equal(grad, want_grad)
    # "lonely" feeds nothing, so no seeded fan-in holds it.
    assert np.all(grad[:, -1] == 0.0)
    if probs == "binary":
        bits = P.astype(np.uint8)
        nets = list(range(c.num_nets))
        got = c.eval_batch(bits, nets=nets)
        names = [c.name(i) for i in c.primary_inputs]
        for row, want in zip(bits, got):
            ref = naive_eval(c, dict(zip(names, row.tolist())))
            assert [ref[c.name(i)] for i in nets] == want.tolist()
        assert np.array_equal(tape.T, got)


class TestForwardInputRows:
    def _case(self):
        c = load("c17.bench")
        cone = c.compile(ConstraintSet.from_names(c, {"22": 0, "23": 1})).circuit
        P = np.random.default_rng(5).uniform(0, 1, size=(6, cone.num_inputs))
        return cone, P, forward(cone, P)

    def test_probabilities_already_in_the_leading_input_rows_are_used_in_place(self):
        cone, P, want = self._case()
        k, b = P.shape[1], P.shape[0]
        ws = nan_workspace(cone, b + 2)
        ws.tape[:k, :b] = P.T
        tape = forward(cone, ws.tape[:k, :b].T, ws)
        assert np.array_equal(tape, want)

    def test_probabilities_elsewhere_in_the_buffer_are_copied(self):
        cone, P, want = self._case()
        k, b = P.shape[1], P.shape[0]
        # The input rows one row down: they overlap the tape's input rows.
        ws = nan_workspace(cone, b)
        ws.tape[1 : k + 1] = P.T
        assert np.array_equal(forward(cone, ws.tape[1 : k + 1].T, ws), want)
        # Same first element as the tape's input rows but laid out row-major.
        ws = nan_workspace(cone, b)
        inputs = ws.tape.reshape(-1)[: b * k].reshape(b, k)
        inputs[...] = P
        assert np.array_equal(forward(cone, inputs, ws), want)


def _with_constants_and_a_floating_net(seed: int) -> tuple[Circuit, dict[int, int]]:
    """`_lowering_case` plus constants, gates that read them, a net that
    nothing drives or reads, and pins on an input and on a constant's reader."""
    c, pins = _lowering_case(seed)
    rng = np.random.default_rng(seed + 2)
    names, gates, n = list(c.names), list(c.gates), c.num_nets
    x = int(rng.integers(n))
    names += ["k0", "k1", "and_k1", "or_k0", "nand_k0", "floating"]
    gates += [Gate(GateKind.CONST0, (), n), Gate(GateKind.CONST1, (), n + 1),
              Gate(GateKind.AND, (n + 1, x), n + 2), Gate(GateKind.OR, (x, n), n + 3),
              Gate(GateKind.NAND, (n, x, x), n + 4)]
    out = Circuit(names, c.primary_inputs, c.primary_outputs + [n + 2, n + 3, n + 4], gates)
    pins = {**pins, c.primary_inputs[0]: 1, n + 2: 0}
    return out, pins


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
       b=st.integers(2, 12))
def test_bound_passes_equal_the_reference_with_constants_floating_nets_and_short_chunks(seed, dtype, b):
    # A full-width workspace, then a short last chunk in its leading columns,
    # then full width again: each width runs its own bound lists.
    c, pins = _with_constants_and_a_floating_net(seed)
    assert c.lowered().undriven == [c.name_to_id["floating"]]
    rng = np.random.default_rng(seed + 3)
    kept = nan_workspace(c, b, dtype)
    for width in (b, b - 1, b, 1):
        P = rng.uniform(0.0, 1.0, size=(width, c.num_inputs)).astype(dtype)
        seeds = {net: rng.normal(size=width) for net in pins}
        want_tape = reference_forward(c, P)
        want_grad = reference_backward(c, want_tape, seeds)
        for ws in (kept, None):
            tape = forward(c, P, ws)
            assert tape.dtype == dtype and tape.tobytes() == want_tape.tobytes()
            grad = backward(c, tape, seeds, ws)
            assert grad.dtype == dtype and np.array_equal(grad, want_grad)
    assert np.all(tape[c.name_to_id["floating"]] == 0.0)


def test_a_dropped_workspace_is_freed_with_its_lists_and_buffers_without_the_cyclic_collector():
    # The lists hold views of the buffers and nothing that refers back to the
    # workspace, so reference counting frees them, and the buffers, with it.
    c = load("c17.bench")
    cone = c.compile(ConstraintSet.from_names(c, {"23": 1})).circuit
    b = 8
    ws = Workspace(cone, b, np.float64)
    tape = forward(cone, np.full((b, cone.num_inputs), 0.5), ws)
    backward(cone, tape, {cone.primary_outputs[0]: np.ones(b)}, ws)
    assert len(ws.lists) == 2
    bound_tape, bound_adj = (entry[0] for entry in ws.lists.values())
    refs = [weakref.ref(x) for x in (ws, ws.tape, ws.adj, ws.scratch, bound_tape, bound_adj)]
    gc.disable()
    try:
        del ws, tape, bound_tape, bound_adj
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
