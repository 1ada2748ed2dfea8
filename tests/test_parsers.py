import itertools

import numpy as np
import pytest

from circsat import (
    GateKind,
    ParseError,
    parse_bench,
    parse_blif,
    parse_constraints,
    parse_file,
    parse_verilog,
    to_bench,
    to_blif,
    to_verilog,
)

from helpers import DATA, load, random_circuit


class TestVerilog:
    def test_c15_counts(self):
        c = load("c15.v")
        assert (c.num_inputs, c.num_outputs, len(c.gates)) == (5, 2, 5)
        io = set(c.primary_inputs) | set(c.primary_outputs)
        wires = [n for n in range(c.num_nets) if n not in io]
        assert len(wires) == 3
        assert [c.name(n) for n in c.primary_inputs] == ["G1", "G2", "G3", "G6", "G7"]
        assert [c.name(n) for n in c.primary_outputs] == ["G19", "G22"]

    def test_minimal_module(self):
        c = parse_verilog("module t(a,y); input a; output y; not N0(y,a); endmodule")
        assert (c.num_inputs, c.num_outputs, len(c.gates)) == (1, 1, 1)
        assert c.gates[0].kind is GateKind.NOT

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_verilog("module t(a,y);\ninput a output y;\nendmodule")

    def test_unsupported_construct(self):
        src = "module t(a,y); input a; output y; assign y = a; endmodule"
        with pytest.raises(ParseError, match="assign"):
            parse_verilog(src)

    def test_undeclared_net(self):
        src = "module t(a,y); input a; output y; not N0(y,b); endmodule"
        with pytest.raises(ParseError, match="'b'"):
            parse_verilog(src)

    def test_arity_violation(self):
        src = "module t(a,b,y); input a,b; output y; not N0(y,a,b); endmodule"
        with pytest.raises(ParseError, match="arity"):
            parse_verilog(src)

    def test_comments_ignored(self):
        src = "// header\nmodule t(a,y); input a; output y;\n// gate\nbuf B(y,a);\nendmodule"
        assert parse_verilog(src).gates[0].kind is GateKind.BUF


class TestBlif:
    def test_and_cover(self):
        c = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
        assert c.gates[0].kind is GateKind.AND

    def test_or_cover_offset_form(self):
        # OR written as the off-set: output 0 exactly on 00.
        c = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n00 0\n.end\n")
        assert c.gates[0].kind is GateKind.OR

    def test_xor_cover(self):
        c = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n01 1\n10 1\n.end\n")
        assert c.gates[0].kind is GateKind.XOR

    def test_constant_one_cover(self):
        c = parse_blif(".model t\n.inputs a\n.outputs y a2\n.names y\n1\n.names a a2\n1 1\n.end\n")
        kinds = {c.name(g.output): g.kind for g in c.gates}
        assert kinds["y"] is GateKind.CONST1

    def test_unsupported_cover_rejected(self):
        src = ".model t\n.inputs a b c\n.outputs y\n.names a b c y\n110 1\n001 1\n.end\n"
        with pytest.raises(ParseError, match="unsupported cover"):
            parse_blif(src)

    def test_latch_rejected(self):
        src = ".model t\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n"
        with pytest.raises(ParseError, match="latch"):
            parse_blif(src)

    def test_duplicate_driver_rejected(self):
        src = ".model t\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n"
        with pytest.raises(ParseError, match="duplicate driver"):
            parse_blif(src)

    def test_missing_outputs_rejected(self):
        with pytest.raises(ParseError, match="outputs"):
            parse_blif(".model t\n.inputs a\n.names a y\n1 1\n.end\n")

    def test_c15_blif_matches_verilog_on_all_assignments(self):
        cv = load("c15.v")
        cb = load("c15.blif")
        names = [cv.name(n) for n in cv.primary_inputs]
        for bits in itertools.product((0, 1), repeat=5):
            a = dict(zip(names, bits))
            va, vb = cv.eval_discrete(a), cb.eval_discrete(a)
            assert (va["G19"], va["G22"]) == (vb["G19"], vb["G22"])


class TestBench:
    def test_c17_counts(self):
        c = load("c17.bench")
        assert (c.num_inputs, c.num_outputs, len(c.gates)) == (5, 2, 6)

    def test_single_not(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert c.gates[0].kind is GateKind.NOT

    def test_buff_keyword(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
        assert c.gates[0].kind is GateKind.BUF

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="FOO"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n")

    def test_net_redefinition(self):
        with pytest.raises(ParseError, match="redefinition"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n")


class TestRoundTripAndCrossFormat:
    def _isomorphic(self, a, b):
        assert a.num_inputs == b.num_inputs
        assert a.num_outputs == b.num_outputs
        assert len(a.gates) == len(b.gates)
        bn = {b.name(g.output): g for g in b.gates}
        for g in a.gates:
            h = bn[a.name(g.output)]
            assert [a.name(n) for n in g.inputs] == [b.name(n) for n in h.inputs]
            # Kinds must agree as truth tables (odd-arity fold-XNOR == XOR, so
            # BLIF canonicalization may legitimately return either name).
            f = len(g.inputs)
            for bits in itertools.product((0, 1), repeat=f):
                assert g.kind.truth(bits) == h.kind.truth(bits)

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_all_formats(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n_inputs=4, n_gates=15)
        self._isomorphic(c, parse_verilog(to_verilog(c)))
        self._isomorphic(c, parse_bench(to_bench(c)))
        self._isomorphic(c, parse_blif(to_blif(c)))

    def test_c15_cross_format_random_vectors(self):
        circuits = [load("c15.v"), load("c15.bench"), load("c15.blif")]
        rng = np.random.default_rng(0)
        vectors = rng.integers(0, 2, size=(1000, 5))
        refs = [c.eval_batch(vectors) for c in circuits]
        assert np.array_equal(refs[0], refs[1])
        assert np.array_equal(refs[0], refs[2])

    def test_c17_cross_format_random_vectors(self):
        cb = load("c17.bench")
        cv = load("c17.v")
        rng = np.random.default_rng(1)
        vectors = rng.integers(0, 2, size=(1000, 5))
        assert np.array_equal(cb.eval_batch(vectors), cv.eval_batch(vectors))


class TestDispatchAndConstraints:
    def test_format_inferred_from_extension(self):
        assert parse_file(DATA / "c17.bench").num_inputs == 5
        assert parse_file(DATA / "c15.v").num_inputs == 5

    def test_unknown_extension_needs_explicit_format(self):
        path = DATA / "c15.v"
        with pytest.raises(ParseError, match="format"):
            parse_file(path.with_suffix(".txt"))

    def test_constraint_file(self):
        c = load("c15.v")
        cs = parse_constraints("# pin\nG19 1\nG22 0\n", c)
        assert {c.name(k): v for k, v in cs.pins.items()} == {"G19": 1, "G22": 0}

    def test_duplicate_pin_rejected(self):
        c = load("c15.v")
        with pytest.raises(ParseError, match="duplicate pin"):
            parse_constraints("G19 1\nG19 0\n", c)

    def test_bad_pin_line_rejected(self):
        c = load("c15.v")
        with pytest.raises(ParseError, match="line 1"):
            parse_constraints("G19 = 1\n", c)
