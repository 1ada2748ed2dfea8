"""The benchmark's generators, count formula and independent evaluator."""

import itertools

import numpy as np
import pytest

from circsat import parse_bench, parse_blif, parse_verilog
from netlist import Netlist, evaluate, read_bench, to_blif, to_verilog
from workloads import (
    C17_BENCH,
    WORKLOADS,
    adder_count,
    brute_force,
    check_output,
    decode_adder,
    random_dag,
    ripple_adder,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adder_count_formula_matches_brute_force(n):
    adder = ripple_adder(n)
    for s in range(2 ** (n + 1)):
        pins = {f"s{i}": (s >> i) & 1 for i in range(n + 1)}
        found = brute_force(adder, pins, adder.inputs)
        pairs = [(a, b) for a, b in itertools.product(range(2**n), repeat=2) if a + b == s]
        assert len(found) == len(pairs) == adder_count(n, s)
        if found:
            rows = np.array(sorted(found))
            a, b = decode_adder(adder.inputs, rows, n)
            assert np.all(a + b == s)


def _agree(netlist: Netlist, circuit, rng):
    rows = rng.integers(0, 2, size=(64, len(netlist.inputs))).astype(np.uint8)
    # circsat orders inputs by declaration; map by name to be safe.
    order = [netlist.inputs.index(circuit.name(n)) for n in circuit.primary_inputs]
    got = circuit.eval_batch(rows[:, order])
    ours = evaluate(netlist, {n: rows[:, j] for j, n in enumerate(netlist.inputs)},
                    [circuit.name(n) for n in circuit.primary_outputs])
    want = np.stack([ours[circuit.name(n)] for n in circuit.primary_outputs], axis=1)
    np.testing.assert_array_equal(got, want.astype(np.uint8))


@pytest.mark.parametrize("seed", range(8))
def test_evaluator_matches_circsat_oracle_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    netlist = random_dag(rng, 6, 40, max_fan_in=4)
    assert {g.kind for g in netlist.gates} >= {"AND", "XOR", "XNOR"}
    _agree(netlist, parse_blif(to_blif(netlist)), rng)
    _agree(netlist, parse_verilog(to_verilog(netlist)), rng)


def test_evaluator_matches_circsat_oracle_on_c17_and_adder():
    rng = np.random.default_rng(0)
    text = C17_BENCH.read_text()
    _agree(read_bench(text), parse_bench(text), rng)
    adder = ripple_adder(16)
    _agree(adder, parse_verilog(to_verilog(adder)), rng)


def test_workloads_depend_on_seed_only_through_the_sampler_seed():
    for make in WORKLOADS.values():
        a, b = make(3), make(4)
        assert a.text == b.text and a.pins == b.pins
        assert a.options["seed"] == "3" and b.options["seed"] == "4"


def test_c17_census_has_eighteen_solutions():
    assert WORKLOADS["c17-census"](0).known_count == 18


def _adder_rows(pairs, n=16):
    header = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    lines = [",".join(header)]
    for a, b in pairs:
        lines.append("".join(str((a >> i) & 1) for i in range(n))
                     + "".join(str((b >> i) & 1) for i in range(n)))
    return "\n".join(lines) + "\n"


def test_check_output_accepts_valid_and_flags_each_defect():
    wl = WORKLOADS["adder16-sum"](0)
    assert check_output(wl, _adder_rows([(1, 29999), (30000, 0)])) == (2, [])

    rows, problems = check_output(wl, _adder_rows([(1, 29998)]))
    assert rows == 1 and any("fail the pins" in p for p in problems)

    _, problems = check_output(wl, _adder_rows([(1, 29999), (1, 29999)]))
    assert any("duplicate rows" in p for p in problems)

    text = _adder_rows([(1, 29999)])
    header, row = text.splitlines()
    cut = "\n".join([header.split(",", 1)[1], row[1:]]) + "\n"
    _, problems = check_output(wl, cut)
    assert any("misses cone inputs" in p for p in problems)

    _, problems = check_output(wl, "a0,a0\n11\n")
    assert any("duplicate header" in p for p in problems)


def test_check_output_compares_c17_with_brute_force():
    wl = WORKLOADS["c17-census"](0)
    census = sorted(brute_force(wl.netlist, wl.pins, wl.netlist.inputs))
    lines = [",".join(wl.netlist.inputs)] + ["".join(map(str, r)) for r in census]
    assert check_output(wl, "\n".join(lines) + "\n") == (18, [])
    _, problems = check_output(wl, "\n".join(lines[:-1]) + "\n")
    assert any("differs from brute force" in p for p in problems)
