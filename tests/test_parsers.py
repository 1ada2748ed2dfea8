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
    tseytin_encode,
    write_dimacs,
)

from helpers import DATA, load, random_circuit, to_bench, to_blif, to_verilog


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

    def test_wire_driven_twice_names_the_line(self):
        src = ("module t(a,y); input a; output y; wire w;\n"
               "not N0(w,a);\nbuf B0(w,a);\nbuf B1(y,w);\nendmodule")
        with pytest.raises(ParseError, match="redefinition of net 'w': duplicate driver at line 3"):
            parse_verilog(src)

    def test_port_declared_only_as_wire_rejected(self):
        src = "module t(a,w,y); input a; output y; wire w; not N0(w,a); buf B0(y,w); endmodule"
        with pytest.raises(ParseError, match="port 'w' is not declared as input or output"):
            parse_verilog(src)

    def test_input_or_output_missing_from_port_list_rejected(self):
        src = "module t(a); input a,b; output y; and A0(y,a,b); endmodule"
        with pytest.raises(ParseError, match="input 'b' is not in the module's port list"):
            parse_verilog(src)
        src = "module t(a,b); input a,b; output y; and A0(y,a,b); endmodule"
        with pytest.raises(ParseError, match="output 'y' is not in the module's port list"):
            parse_verilog(src)

    def test_cycle_is_invalid_circuit(self):
        src = "module t(a,y); input a; output y; wire w; and A0(w,a,y); not N0(y,w); endmodule"
        with pytest.raises(ParseError, match="invalid circuit: cycle: ") as exc:
            parse_verilog(src)
        assert set(str(exc.value).split("cycle: ")[1].split(" -> ")) == {"w", "y"}


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

    def test_same_cover_on_different_nets_gives_the_same_kind(self):
        src = (".model t\n.inputs a b c\n.outputs y z\n"
               ".names a b y\n0- 1\n-0 1\n.names b c z\n0- 1\n-0 1\n.end\n")
        c = parse_blif(src)
        assert [g.kind for g in c.gates] == [GateKind.NAND, GateKind.NAND]
        assert [[c.name(n) for n in g.inputs] for g in c.gates] == [["a", "b"], ["b", "c"]]

    @pytest.mark.parametrize("cover, message", [
        ("11 1\n00 0\n", "cover mixes output values 0 and 1 at line 8$"),
        ("10 1\n", "unsupported cover: .* at line 8$"),
    ])
    def test_bad_cover_names_its_line_after_a_valid_one_of_the_same_fan_in(self, cover, message):
        src = (".model t\n.inputs a b\n.outputs y z\n"
               ".names a b y\n11 1\n.names b a w\n11 1\n.names a b z\n" + cover + ".end\n")
        with pytest.raises(ParseError, match=message):
            parse_blif(src)

    def test_missing_outputs_rejected(self):
        with pytest.raises(ParseError, match="outputs"):
            parse_blif(".model t\n.inputs a\n.names a y\n1 1\n.end\n")

    def test_mixed_cover_names_the_line(self):
        src = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"
        with pytest.raises(ParseError, match="cover mixes output values 0 and 1 at line 4$"):
            parse_blif(src)

    def test_unsupported_cover_names_the_line(self):
        src = ".model t\n.inputs a b c\n.outputs y\n\n.names a b c y\n110 1\n001 1\n.end\n"
        with pytest.raises(ParseError, match="unsupported cover: .* at line 5$"):
            parse_blif(src)

    def test_driven_primary_input_names_the_line(self):
        src = ".model t\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b a\n1 1\n.end\n"
        with pytest.raises(ParseError, match="redefinition of net 'a': duplicate driver at line 6"):
            parse_blif(src)

    def test_c15_blif_matches_verilog_on_all_assignments(self):
        cv = load("c15.v")
        cb = load("c15.blif")
        names = [cv.name(n) for n in cv.primary_inputs]
        rows = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        by_name = [names.index(cb.name(n)) for n in cb.primary_inputs]  # cb's column order
        outs = lambda c, r: c.eval_batch(r, nets=[c.name_to_id["G19"], c.name_to_id["G22"]])
        assert np.array_equal(outs(cv, rows), outs(cb, rows[:, by_name]))


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


class TestNetNumbering:
    """Net ids are CNF variables minus one, so `export-cnf` depends on this order."""

    @pytest.mark.parametrize("name,names", [
        # Verilog: declaration order (inputs, outputs, wires).
        ("c15.v", ["G1", "G2", "G3", "G6", "G7", "G19", "G22", "G10", "G11", "G16"]),
        # BLIF and .bench: inputs, outputs, then each gate's output and inputs at first use.
        ("c15.blif", ["G1", "G2", "G3", "G6", "G7", "G19", "G22", "G10", "G11", "G16"]),
        ("c17.bench", ["1", "2", "3", "6", "7", "22", "23", "10", "11", "16", "19"]),
    ])
    def test_names_of_the_data_files(self, name, names):
        assert load(name).names == names

    def test_verilog_numbers_wires_in_declaration_order(self):
        src = ("module t(a,y); input a; output y; wire v,w;"
               " not N0(w,a); not N1(v,w); and A0(y,v,w); endmodule")
        assert parse_verilog(src).names == ["a", "y", "v", "w"]

    def test_blif_and_bench_number_gate_nets_at_first_use(self):
        blif = (".model t\n.inputs a\n.outputs y\n"
                ".names v w y\n11 1\n.names a w\n0 1\n.names w v\n1 1\n.end\n")
        bench = "INPUT(a)\nOUTPUT(y)\ny = AND(v, w)\nw = NOT(a)\nv = BUFF(w)\n"
        assert parse_blif(blif).names == ["a", "y", "v", "w"]
        assert parse_bench(bench).names == ["a", "y", "v", "w"]

    @pytest.mark.parametrize("name", ["c15.v", "c15.blif", "c17.bench"])
    def test_dimacs_names_inputs_and_outputs_by_net_id(self, name):
        c = load(name)
        text = write_dimacs(tseytin_encode(c))
        comments = [ln for ln in text.splitlines() if ln.startswith("c ")]
        io = [("input", n) for n in c.primary_inputs] + [("output", n) for n in c.primary_outputs]
        assert comments == [f"c {what} {c.names[n]} {n + 1}" for what, n in io]
        assert [int(ln.split()[-1]) for ln in comments] == list(range(1, 8))


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
