"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``CRITERION n: PASS`` / ``FAIL`` / ``SKIP`` line
and enforces its wall-clock budget.  ISCAS-85 netlists are read from
tests/data/iscas85 (override with CIRCSAT_ISCAS_DIR), which ships only c17.
Every netlist that is present is checked; the ones that are absent are then
reported by name in a skip, so a missing file never hides a real failure.
"""

import itertools
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from circsat import (
    ConstraintSet,
    SamplerConfig,
    forward,
    backward,
    harden,
    init_embeddings,
    loss_and_grad,
    parse_file,
    run_sampling,
    tseytin_encode,
)

from dpll import all_models
from helpers import (
    ISCAS_DIR,
    brute_force_solutions,
    fd_input_grads,
    iscas_path,
    load,
    naive_eval,
    random_circuit,
    solutions_by_key,
)

# Reference statistics for the ISCAS-85 benchmark suite:
# name -> (inputs, outputs, gates, cnf_vars, cnf_clauses).
ISCAS85 = {
    "c17": (5, 2, 6, 25, 19),
    "c432": (36, 7, 160, 539, 516),
    "c499": (41, 32, 202, 683, 717),
    "c880": (60, 26, 383, 1198, 1115),
    "c1355": (41, 32, 546, 1683, 1613),
    "c1908": (33, 25, 880, 2436, 2381),
    "c2670": (233, 140, 1269, 3642, 3274),
    "c3540": (50, 22, 1669, 4680, 4611),
    "c5315": (178, 123, 2307, 6994, 6698),
    "c6288": (32, 32, 2416, 7280, 7219),
    "c7552": (207, 108, 3513, 9971, 9661),
}


def _enforce_budget(number: int, budget_s: float, t0: float) -> float:
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"CRITERION {number}: FAIL (ran {elapsed:.1f}s, budget {budget_s}s)",
              file=sys.stderr)
        pytest.fail(f"criterion {number} exceeded {budget_s}s budget: {elapsed:.1f}s")
    return elapsed


@contextmanager
def criterion(number: int, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        # The checks that ran before the skip still answer to the budget.
        _enforce_budget(number, budget_s, t0)
        print(f"CRITERION {number}: SKIP ({exc.msg})", file=sys.stderr)
        raise
    except pytest.xfail.Exception as exc:
        print(f"CRITERION {number}: XFAIL ({exc.msg})", file=sys.stderr)
        raise
    except BaseException:
        print(f"CRITERION {number}: FAIL", file=sys.stderr)
        raise
    elapsed = _enforce_budget(number, budget_s, t0)
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s)", file=sys.stderr)


def _iscas85_present():
    """Split ISCAS85 into (name, path, reference) for the netlists on disk
    and the names of the ones that are absent."""
    present, missing = [], []
    for name, ref in ISCAS85.items():
        path = iscas_path(name)
        if path.exists():
            present.append((name, path, ref))
        else:
            missing.append(name)
    return present, missing


def _skip_missing(missing):
    if missing:
        pytest.skip(f"ISCAS-85 netlists not in {ISCAS_DIR}: {', '.join(missing)}")


def _worked_example_embeddings(circuit):
    cols = {circuit.name(n): i for i, n in enumerate(circuit.primary_inputs)}
    V = np.zeros((2, 5))
    V[:, cols["G3"]] = [0.1, -0.2]
    V[:, cols["G6"]] = [0.5, -0.4]
    V[:, cols["G7"]] = [-0.7, -0.8]
    return V, cols


def test_criterion_1_worked_example_goldens():
    with criterion(1, budget_s=1.0):
        c = load("c15.v")
        cs = ConstraintSet.from_names(c, {"G19": 1})
        V, cols = _worked_example_embeddings(c)
        P = 1.0 / (1.0 + np.exp(-V))

        approx4 = lambda want: pytest.approx(want, abs=1e-4)
        assert P[:, cols["G3"]] == approx4([0.5250, 0.4502])
        assert P[:, cols["G6"]] == approx4([0.6225, 0.4013])
        assert P[:, cols["G7"]] == approx4([0.3318, 0.3100])

        tape = forward(c, P)
        assert tape[c.name_to_id["G11"]] == approx4([0.4939, 0.4902])
        assert tape[c.name_to_id["G19"]] == approx4([0.1639, 0.1520])

        cone = c.compile(cs)
        trained = [cols["G3"], cols["G6"], cols["G7"]]
        assert cone.input_cols == trained
        loss, grad = loss_and_grad(cone, V[:, trained].T)  # U and dL/dU are input-major
        assert loss == approx4([0.6991, 0.7192])
        assert grad[0] == approx4([0.0339, -0.0257])
        assert grad[1] == approx4([0.0065, -0.0126])
        assert grad[2] == approx4([-0.1831, -0.1778])

        V[:, trained] -= 10.0 * grad.T
        assert V[:, cols["G3"]] == approx4([-0.2389, 0.0569])
        assert V[:, cols["G6"]] == approx4([0.4349, -0.2741])
        assert V[:, cols["G7"]] == approx4([1.1311, 0.9783])

        hard = harden(V)
        assert hard[0, trained].tolist() == [0, 1, 1]
        assert hard[1, trained].tolist() == [1, 0, 1]


def test_criterion_2_binary_point_exactness():
    with criterion(2, budget_s=30.0):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            c = random_circuit(rng, n_inputs=n, n_gates=int(rng.integers(5, 51)))
            rows = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
            tape = forward(c, rows.astype(float))
            ref = c.eval_batch(rows, nets=list(range(c.num_nets)))
            assert np.array_equal(tape.T, ref)


def test_criterion_3_gradients_match_finite_differences():
    with criterion(3, budget_s=60.0):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            c = random_circuit(rng, n_inputs=n, n_gates=int(rng.integers(5, 41)))
            cs = ConstraintSet({net: int(rng.integers(0, 2)) for net in c.primary_outputs})
            P = rng.uniform(0.05, 0.95, size=(2, n))
            tape = forward(c, P)
            seeds = {net: 2.0 * (tape[net] - t) for net, t in cs.pins.items()}
            got = backward(c, tape, seeds)
            want = fd_input_grads(c, P, cs)
            err = np.abs(got - want)
            # 1e-8 absolute floor covers finite-difference noise where the
            # exact gradient is zero (outside-cone inputs).
            assert np.all((err <= 1e-5 * np.abs(want)) | (err <= 1e-8))


def test_criterion_4_c17_census():
    with criterion(4, budget_s=5.0):
        c = load("c17.bench")
        cs = ConstraintSet.from_names(c, {"23": 1})
        oracle = brute_force_solutions(c, cs)
        # Cross-check the documented count; the oracle stays authoritative.
        if len(oracle) != 18:
            print(f"note: oracle census is {len(oracle)}, documented count is 18",
                  file=sys.stderr)
        config = SamplerConfig(
            batch_size=10_000, learning_rate=15.0, iterations=10, seed=0,
            dedup_scope="all",
        )
        result = run_sampling(c, cs, config)
        got = {tuple(int(b) for b in row) for row in result.full_rows()}
        assert got == oracle
        assert len(got) == 18


def test_criterion_5_iscas85_parser_census():
    with criterion(5, budget_s=5.0):
        present, missing = _iscas85_present()
        problems = []
        for name, path, (n_in, n_out, n_gates, _, _) in present:
            c = parse_file(path)
            got = (c.num_inputs, c.num_outputs, len(c.gates))
            if got != (n_in, n_out, n_gates):
                problems.append(f"{name}: counts {got} != {(n_in, n_out, n_gates)}")
        assert not problems, "; ".join(problems)
        _skip_missing(missing)


def test_criterion_6_cnf_cross_validation():
    with criterion(6, budget_s=30.0):
        # Input projections of all CNF models equal the brute-force sets.
        for fname, pins in [("c15.v", {"G19": 1}), ("c17.bench", {"23": 1})]:
            c = load(fname)
            cs = ConstraintSet.from_names(c, pins)
            cnf = tseytin_encode(c, cs)
            models = all_models(cnf.var_count, cnf.clauses)
            input_vars = [cnf.var_map[n] for n in c.primary_inputs]
            proj = {tuple(m[v] for v in input_vars) for m in models}
            assert proj == brute_force_solutions(c, cs), fname

        # Every sampler solution satisfies the exported CNF.
        c = load("c17.bench")
        cs = ConstraintSet.from_names(c, {"23": 1})
        cnf = tseytin_encode(c, cs)
        result = run_sampling(c, cs, SamplerConfig(batch_size=4096, iterations=5, seed=1))
        assert len(result) > 0
        names = [c.name(n) for n in c.primary_inputs]
        for row in result.full_rows():
            values = naive_eval(c, dict(zip(names, row.tolist())))
            assign = {cnf.var_map[n]: values[c.name(n)] for n in range(c.num_nets)}
            assert all(
                any((lit > 0) == bool(assign[abs(lit)]) for lit in clause)
                for clause in cnf.clauses
            )


def test_criterion_6_iscas85_cnf_size_bound():
    with criterion(6, budget_s=30.0):
        # Unconstrained encodings stay within 2x of the reference CNF sizes
        # (one-sided: our single-variable-per-net encoding is never larger).
        present, missing = _iscas85_present()
        problems = []
        for name, path, (_, _, _, ref_vars, ref_clauses) in present:
            enc = tseytin_encode(parse_file(path))
            if enc.var_count > 2 * ref_vars or len(enc.clauses) > 2 * ref_clauses:
                problems.append(
                    f"{name}: ({enc.var_count}, {len(enc.clauses)}) exceeds "
                    f"2x of ({ref_vars}, {ref_clauses})"
                )
        assert not problems, "; ".join(problems)
        _skip_missing(missing)


@pytest.mark.skipif(not iscas_path("c432").exists(),
                    reason=f"ISCAS-85 netlist not in {ISCAS_DIR}: c432")
def test_criterion_7_c432_learning_curve_shape():
    with criterion(7, budget_s=60.0):
        c = parse_file(iscas_path("c432"))
        first_output = c.name(c.primary_outputs[0])
        cs = ConstraintSet.from_names(c, {first_output: 1})
        config = SamplerConfig(batch_size=10_000, learning_rate=15.0,
                               iterations=10, seed=0)
        result = run_sampling(c, cs, config)
        cum = [s.cumulative_unique for s in result.stats]
        assert cum[0] > 0
        assert cum == sorted(cum)
        # The 50% floor is not from the paper, whose abstract states no
        # iteration-1 share; ROADMAP item 5 is its only source.
        assert cum[0] >= 0.5 * cum[-1], (
            f"iteration 1 found {cum[0]} of {cum[-1]} unique solutions (< 50%)"
        )


def test_criterion_8_determinism_and_parallel_equivalence():
    with criterion(8, budget_s=60.0):
        c = load("c15.v")
        cs = ConstraintSet.from_names(c, {"G19": 1})

        def snapshot(threads):
            config = SamplerConfig(batch_size=20_000, iterations=5, seed=42,
                                   threads=threads)
            result = run_sampling(c, cs, config)
            by_key = solutions_by_key(result)
            return (
                list(by_key.keys()),
                [row.tolist() for row in by_key.values()],
                [(s.iteration, s.new_unique, s.cumulative_unique) for s in result.stats],
            )

        a, b = snapshot(1), snapshot(1)
        assert a == b
        assert snapshot(8)[:2] == a[:2]

        # Same seed also gives identical initial embeddings.
        config = SamplerConfig(batch_size=1000, seed=7)
        assert np.array_equal(init_embeddings(config, c.num_inputs), init_embeddings(config, c.num_inputs))
