import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circsat import (
    Circuit,
    CircuitError,
    Gate,
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
from circsat import parsers

from helpers import DATA, load, random_circuit, reference_topo_order, to_bench, to_blif, to_verilog


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


_LAYOUT = st.lists(st.sampled_from([" ", "\t", "\n", " // comment\n"]), max_size=3).map("".join)


class TestVerilogStatements:
    """Verilog is read as `;`-terminated statements; an error names the line its statement starts on."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_gates=st.integers(1, 12), data=st.data())
    def test_layout_between_tokens_gives_the_same_circuit(self, seed, n_gates, data):
        src = to_verilog(random_circuit(np.random.default_rng(seed), n_inputs=3, n_gates=n_gates))
        tokens = re.findall(r"\w+|\S", src)
        gaps = data.draw(st.lists(_LAYOUT, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        text = ""
        for gap, tok in zip(gaps, tokens + [""]):
            if not gap and text[-1:].isalnum() and tok[:1].isalnum():
                gap = " "  # two names need a space between them
            text += gap + tok
        want, got = parse_verilog(src), parse_verilog(text)
        assert (got.names, got.primary_inputs, got.primary_outputs, got.gates) == (
            want.names, want.primary_inputs, want.primary_outputs, want.gates)

    @pytest.mark.parametrize("src, message", [
        ("// header\nwire w;\nmodule t(a,y); input a; output y; not N0(y,a); endmodule",
         "expected 'module', found 'wire' at line 2"),
        ("module t(a,y); input a; output y; not N0(y,a);\nmodule u(b); endmodule",
         "more than one module at line 2"),
        ("module t(a,y); input a; output y;\nnot (y,a);\nendmodule",
         "malformed statement 'not (y,a)' at line 2"),
        ("module t(a,y); input a;\n;output y; not N0(y,a); endmodule", "empty statement at line 2"),
        ("module t(a,y); input a; output y;\nnot N0(y,a);\n", "expected 'endmodule' "
         "as the only text after the last ';' at line 2"),
        ("module t(a,y); input a; output y;\nnot N0(y,a);\n\n  endmodule\nfoo\n", "expected 'endmodule' "
         "as the only text after the last ';' at line 4"),
        ("module t(a,y);\ninput a; output y;\n  and A0(y, // first\n a a);\nendmodule",
         "malformed statement 'and A0(y, a a)' at line 3"),
        ("module t(a,y); input a; output y;\nnot N0(y);\nendmodule",
         "arity violation: NOT gate on 'y' with 0 inputs at line 2"),
    ], ids=["before-module", "second-module", "no-instance-name", "empty", "no-endmodule",
            "after-endmodule", "two-lines", "no-gate-input"])
    def test_errors_name_the_line_where_the_statement_starts(self, src, message):
        with pytest.raises(ParseError) as exc:
            parse_verilog(src)
        assert str(exc.value) == message


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


class TestBlifBlocks:
    """A `.names` block is read as one unit: its cover text is checked and matched once."""

    AND = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

    @pytest.mark.parametrize("src", [
        ".model t\n.inputs a b\n.outputs y\n.names a b y\n\n11 1\n   \n\n.end\n",
        ".model t\n.inputs a b\n.outputs y\n.names a b y\n# the on-set\n11 1 # one cube\n.end\n",
        ".model t\n.inputs a b\n.outputs y\n.names a b \\\ny\n11 \\\n1\n.end\n",
        "  .model t\n\t.inputs a b\n .outputs y\n   .names a b y\n\t11 1  \n  .end\n",
        ".model t\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n11 1\r\n.end\r\n",
        ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n.names junk\n",
    ], ids=["blank-lines", "comments", "continuations", "indentation", "crlf", "after-end"])
    def test_layout_inside_a_block_gives_the_same_circuit(self, src):
        want, got = parse_blif(self.AND), parse_blif(src)
        assert (got.names, got.primary_inputs, got.primary_outputs, got.gates) == (
            want.names, want.primary_inputs, want.primary_outputs, want.gates)

    @pytest.mark.parametrize("src, message", [
        # Blank lines and comments keep their line numbers.
        (".model t\n.inputs a b\n.outputs y\n.names a b y\n\n# c\n1x 1\n.end\n",
         "bad cover pattern at line 7$"),
        # A continuation joins two lines into one; the lines after it keep their numbers.
        (".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n1x 1\n.end\n",
         "bad cover pattern at line 6$"),
        (".model t\n.inputs a \\\nb \\\nc\n.outputs y\n.names a b c \\\ny\n1x1 1\n.end\n",
         "bad cover pattern at line 8$"),
        (".model t\n.inputs a b\n.outputs y\n.names a b y\n1\\\n1 1\n.end\n",
         "cover line must be '<pattern> <0|1>' at line 5$"),
        (".model t\n.inputs a b\n.outputs y\n.names a b y\n  11 1 1  # c\n.end\n",
         "cover line must be '<pattern> <0|1>' at line 5$"),
        (".model t\n.inputs a\n.outputs y\n.names y\n\n 2\n.end\n",
         "constant cover line must be a single 0 or 1 at line 6$"),
        # Lines that follow a command other than `.names` are not a cover.
        (".model t\n.inputs a b\n\n11 1\n.outputs y\n.end\n", "unsupported BLIF construct '11' at line 4$"),
        ("# header\n\nfoo bar\n.model t\n", "unsupported BLIF construct 'foo' at line 3$"),
        (". names a y\n1 1\n", "unsupported BLIF construct '.' at line 1$"),
        (".model t\n.inputs a\n.outputs y\n.names\n1\n.end\n", ".names needs at least an output net at line 4$"),
        (".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.model u\n.end\n",
         "multiple .model sections are not supported at line 6$"),
    ])
    def test_errors_name_the_source_line(self, src, message):
        with pytest.raises(ParseError, match=message):
            parse_blif(src)

    @pytest.mark.parametrize("src, message", [
        # A malformed cover is reported where it first occurs, before its repeats.
        (".model t\n.inputs a b\n.outputs y z\n.names a b y\n1x 1\n.names a b z\n1x 1\n.end\n",
         "bad cover pattern at line 5$"),
        # A cover text seen before under another fan-in is checked again.
        (".model t\n.inputs a b\n.outputs y z\n.names a y\n1 1\n.names a b z\n1 1\n.end\n",
         "bad cover pattern at line 7$"),
        # A good cover repeated after a malformed one of the same fan-in does not hide it.
        (".model t\n.inputs a b\n.outputs y z w\n.names a b y\n11 1\n.names a b z\n11 1\n01 0\n"
         ".names a b w\n11 1\n.end\n", "cover mixes output values 0 and 1 at line 6$"),
    ])
    def test_repeated_covers_are_checked_as_the_first(self, src, message):
        with pytest.raises(ParseError, match=message):
            parse_blif(src)

    def test_repeated_cover_after_a_different_layout_gives_the_same_kind(self):
        src = (".model t\n.inputs a b c\n.outputs y z w\n.names a b y\n11 0\n"
               ".names b c z\n11 0 # nand\n\n.names a c w\n11 0\n.end\n")
        assert [g.kind for g in parse_blif(src).gates] == [GateKind.NAND] * 3

    def test_each_distinct_cover_is_matched_once(self, monkeypatch):
        c = random_circuit(np.random.default_rng(3), n_inputs=6, n_gates=120)
        calls = []
        match = parsers._cover_to_kind
        monkeypatch.setattr(parsers, "_cover_to_kind", lambda *args: calls.append(args) or match(*args))
        assert parse_blif(to_blif(c)).num_nets == c.num_nets
        # `to_blif` writes one cover text per gate semantics at each fan-in.
        covers = {(len(g.inputs), g.kind.reduction, g.kind.inverted(len(g.inputs))) for g in c.gates}
        assert len(calls) == len({(fan_in, cover) for cover, fan_in, _ in calls}) == len(covers) < len(c.gates)


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


def _defective(rng: np.random.Generator, c: Circuit, defect: str) -> Circuit:
    """`c` with one defect: a gate reading a net nothing drives, a second driver or a cycle.

    The net nothing drives is made an output, so that Verilog declares it.
    """
    names, gates, outputs = list(c.names), list(c.gates), list(c.primary_outputs)
    gi = int(rng.integers(len(gates)))
    g = gates[gi]
    if defect == "dangling":
        names.append("floating")
        outputs.append(len(names) - 1)
        gates[gi] = Gate(g.kind, g.inputs[:-1] + (len(names) - 1,), g.output)
    elif defect == "second driver":
        gates.append(Gate(GateKind.NOT, (c.primary_inputs[0],), g.output))
    elif defect == "cycle":  # read an output that depends on this gate's
        reach = [g.output]
        for h in gates[gi + 1:]:
            if set(h.inputs) & set(reach):
                reach.append(h.output)
        gates[gi] = Gate(g.kind, (reach[int(rng.integers(len(reach)))], *g.inputs[1:]), g.output)
    return Circuit(names, c.primary_inputs, outputs, gates)


def _by_name(c: Circuit):
    """The circuit under its net names, each gate as its lowered semantics."""
    return ([c.names[n] for n in c.primary_inputs], [c.names[n] for n in c.primary_outputs],
            [(g.kind.reduction, g.kind.inverted(len(g.inputs)),
              [c.names[n] for n in g.inputs], c.names[g.output]) for g in c.gates])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 6),
    n_gates=st.integers(1, 25),
    defect=st.sampled_from([None, "dangling", "second driver", "cycle"]),
    shuffle=st.booleans(),
)
def test_formats_agree_and_topo_order_equals_the_heap_sort(seed, n_inputs, n_gates, defect, shuffle):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_inputs, n_gates)
    if defect:
        c = _defective(rng, c, defect)
    if shuffle:  # the gates out of dependency order
        order = rng.permutation(len(c.gates))
        c = Circuit(c.names, c.primary_inputs, c.primary_outputs, [c.gates[gi] for gi in order])
    try:
        want_order = reference_topo_order(c)
    except CircuitError as exc:
        with pytest.raises(CircuitError) as got:
            c.topo_order()
        assert str(got.value) == str(exc) and str(exc) in c.validate()
    else:
        assert c.topo_order() == want_order
    texts = {"verilog": to_verilog(c), "bench": to_bench(c), "blif": to_blif(c)}
    if defect is None:
        parsed = {fmt: getattr(parsers, f"parse_{fmt}")(text) for fmt, text in texts.items()}
        for p in parsed.values():
            assert _by_name(p) == _by_name(c)
            assert p.topo_order() == reference_topo_order(p) == want_order
        # First use numbers the nets as declaration does when every gate follows its inputs.
        same = ["bench", "blif"] if shuffle else ["verilog", "bench", "blif"]
        assert all(parsed[f].names == parsed["blif"].names for f in same)
        return
    errors = {}
    for fmt, text in texts.items():
        with pytest.raises(ParseError) as exc:
            getattr(parsers, f"parse_{fmt}")(text)
        errors[fmt] = str(exc.value)
    if defect == "second driver":
        net = c.names[c.gates[-1].output] if not shuffle else None
        for message in errors.values():
            assert re.fullmatch(r"redefinition of net '(\w+)': duplicate driver at line \d+", message)
            assert net is None or f"'{net}'" in message
        assert len({re.sub(r" at line \d+$", "", m) for m in errors.values()}) == 1
    else:
        assert set(errors.values()) == {"invalid circuit: " + "; ".join(c.validate())}


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
