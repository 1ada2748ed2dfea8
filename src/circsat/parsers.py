"""Netlist frontends: structural Verilog subset, BLIF subset and ISCAS .bench.

Each frontend only recognises its syntax and hands (inputs, outputs, gate
sources) to one builder, which numbers the nets, rejects a duplicate driver
or a bad fan-in at the gate's source line and validates the Circuit; so all
three formats report such errors the same way.  Netlists are only read
here; nothing in the package writes one.
"""

from __future__ import annotations

import functools
import itertools
import re
from pathlib import Path

from .circuit import Circuit, ConstraintSet, Gate, GateKind


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.col = col


_VERILOG_KINDS = {kind.value.lower(): kind for kind in GateKind if not kind.is_const}
_BENCH_KINDS = {
    "BUFF" if kind is GateKind.BUF else kind.value: kind for kind in GateKind if not kind.is_const
}


def _build(order, inputs, outputs, gates_src) -> Circuit:
    """The validated Circuit of one netlist, whatever its format.

    Nets are numbered at first use: the names of `order`, then each gate's
    output and inputs.  `gates_src` holds (kind, out, ins, line) per gate; a
    gate that drives a net that is already driven (a primary input counts as
    driven) or has the wrong fan-in is an error at its line.
    """
    names = list(dict.fromkeys(itertools.chain(order, *((out, *ins) for _, out, ins, _ in gates_src))))
    ids = dict(zip(names, range(len(names))))
    driven = set(inputs)
    gates: list[Gate] = []
    for kind, out, ins, line in gates_src:
        if out in driven:
            raise ParseError(f"redefinition of net '{out}': duplicate driver", line)
        driven.add(out)
        if not kind.arity_ok(len(ins)):
            raise ParseError(
                f"arity violation: {kind.value} gate on '{out}' with {len(ins)} inputs", line
            )
        gates.append(Gate(kind, tuple(map(ids.__getitem__, ins)), ids[out]))
    circuit = Circuit(names, [ids[n] for n in inputs], [ids[n] for n in outputs], gates)
    diags = circuit.validate()
    if diags:
        raise ParseError("invalid circuit: " + "; ".join(diags))
    return circuit


# ---------------------------------------------------------------------------
# Verilog (positional-port, gate-primitive-only subset)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*|[(),;]|\S")


def _tokenize_verilog(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("//", 1)[0]
        for m in _TOKEN_RE.finditer(code):
            tokens.append((m.group(0), lineno, m.start() + 1))
    return tokens


def parse_verilog(text: str) -> Circuit:
    tokens = _tokenize_verilog(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected: str | None = None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of input, expected {expected or 'a token'}")
        tok, line, col = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected '{expected}', found '{tok}'", line, col)
        pos += 1
        return tok, line, col

    def take_name(what: str) -> tuple[str, int, int]:
        tok, line, col = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", tok):
            raise ParseError(f"expected {what}, found '{tok}'", line, col)
        return tok, line, col

    def name_list() -> list[str]:
        out = [take_name("a net name")[0]]
        while peek() == ",":
            take(",")
            out.append(take_name("a net name")[0])
        return out

    take("module")
    take_name("a module name")
    take("(")
    ports = name_list()
    take(")")
    take(";")

    declared_inputs: list[str] = []
    declared_outputs: list[str] = []
    declared_wires: list[str] = []
    gates_src: list[tuple[GateKind, str, list[str], int]] = []

    while peek() != "endmodule":
        tok, line, col = take()
        if tok in ("input", "output", "wire"):
            names = name_list()
            take(";")
            {"input": declared_inputs, "output": declared_outputs, "wire": declared_wires}[
                tok
            ].extend(names)
        elif tok in _VERILOG_KINDS:
            kind = _VERILOG_KINDS[tok]
            take_name("an instance name")
            take("(")
            args = name_list()
            take(")")
            take(";")
            if len(args) < 2:
                raise ParseError(f"gate '{tok}' needs an output and at least one input", line, col)
            gates_src.append((kind, args[0], args[1:], line))
        else:
            raise ParseError(f"unsupported construct '{tok}'", line, col)
    take("endmodule")
    if pos != len(tokens):
        tok, line, col = tokens[pos]
        raise ParseError(f"unexpected token '{tok}' after endmodule", line, col)

    names = declared_inputs + declared_outputs + declared_wires
    declared: set[str] = set()
    for name in names:
        if name in declared:
            raise ParseError(f"net '{name}' declared more than once")
        declared.add(name)
    declared_io = set(declared_inputs) | set(declared_outputs)
    for name in ports:
        if name not in declared_io:
            raise ParseError(f"port '{name}' is not declared as input or output")
    port_set = set(ports)
    for name in declared_inputs + declared_outputs:
        if name not in port_set:
            raise ParseError(f"{'input' if name in declared_inputs else 'output'} '{name}' "
                             "is not in the module's port list")
    for _, out, ins, line in gates_src:
        for name in [out, *ins]:
            if name not in declared:
                raise ParseError(f"undeclared net '{name}'", line)

    return _build(names, declared_inputs, declared_outputs, gates_src)


# ---------------------------------------------------------------------------
# BLIF
# ---------------------------------------------------------------------------


@functools.cache
def _kinds_by_table(fan_in: int) -> dict[tuple[int, ...], GateKind]:
    """Truth table in `itertools.product` order -> the first such kind in `GateKind`."""
    points = list(itertools.product((0, 1), repeat=fan_in))
    kinds = [kind for kind in GateKind if kind.arity_ok(fan_in)]
    return {tuple(kind.truth(bits) for bits in points): kind for kind in reversed(kinds)}


def _cover_to_kind(cover: str, fan_in: int, lineno: int) -> GateKind:
    """The kind of the `.names` at `lineno` with this cover, found by truth-table matching.

    `cover` is the text of the lines after the `.names` line, blank lines
    kept, so that an error names its line.
    """
    cubes: list[list[str]] = []  # [pattern, output bit] per line; [output bit] at fan-in 0
    for cl, fields in enumerate(map(str.split, cover.split("\n")), start=lineno + 1):
        if not fields:
            continue
        if fan_in == 0:
            if len(fields) != 1 or fields[0] not in ("0", "1"):
                raise ParseError("constant cover line must be a single 0 or 1", cl)
        elif len(fields) != 2 or fields[1] not in ("0", "1"):
            raise ParseError("cover line must be '<pattern> <0|1>'", cl)
        elif len(fields[0]) != fan_in or not set(fields[0]) <= set("01-"):
            raise ParseError("bad cover pattern", cl)
        cubes.append(fields)
    out_vals = {cube[-1] for cube in cubes}
    if len(out_vals) > 1:
        raise ParseError("cover mixes output values 0 and 1", lineno)
    listed = int(out_vals.pop()) if out_vals else 1
    table = tuple(
        listed if any(all(p == "-" or int(p) == b for p, b in zip(cube[0], bits)) for cube in cubes)
        else 1 - listed
        for bits in itertools.product((0, 1), repeat=fan_in)
    )
    kind = _kinds_by_table(fan_in).get(table)
    if kind is None:
        raise ParseError(
            f"unsupported cover: {fan_in}-input truth table matches no supported gate", lineno
        )
    return kind


def parse_blif(text: str) -> Circuit:
    # Join continuation lines, strip comments and blanks; every source line stays one line.
    lines = text.replace("\\\n", " ").splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]

    model_seen = False
    inputs: list[str] = []
    outputs: list[str] = []
    gates_src: list[tuple[GateKind, str, list[str], int]] = []
    kinds: dict[tuple[int, str], GateKind] = {}  # (fan-in, cover) -> kind, matched once per parse
    # A block is a command line and the lines up to the next, such as a `.names` and its
    # cover; the first holds the lines before any command, under an empty line 0.
    lineno = 0
    for block in ("\n" + "\n".join(map(str.strip, lines))).split("\n."):
        head, _, body = block.partition("\n")
        parts = ("." + head).split()
        cmd = parts[0] if lineno else ""
        if cmd == ".names":
            if len(parts) < 2:
                raise ParseError(".names needs at least an output net", lineno)
            if (key := (len(parts) - 2, body)) not in kinds:
                kinds[key] = _cover_to_kind(body, len(parts) - 2, lineno)
            gates_src.append((kinds[key], parts[-1], parts[1:-1], lineno))
        elif cmd == ".end":
            break
        else:
            if cmd == ".model":
                if model_seen:
                    raise ParseError("multiple .model sections are not supported", lineno)
                model_seen = True
            elif cmd == ".inputs":
                inputs.extend(parts[1:])
            elif cmd == ".outputs":
                outputs.extend(parts[1:])
            elif cmd == ".latch":
                raise ParseError(".latch is not supported (combinational circuits only)", lineno)
            elif cmd:
                raise ParseError(f"unsupported BLIF construct '{cmd}'", lineno)
            for ln, line in enumerate(body.split("\n"), start=lineno + 1):
                if line:
                    raise ParseError(f"unsupported BLIF construct '{line.split()[0]}'", ln)
        lineno += 1 + block.count("\n")

    if not inputs and not model_seen:
        raise ParseError("missing .model/.inputs/.outputs header")
    if not inputs:
        raise ParseError("missing .inputs")
    if not outputs:
        raise ParseError("missing .outputs")

    return _build(inputs + outputs, inputs, outputs, gates_src)


# ---------------------------------------------------------------------------
# ISCAS .bench
# ---------------------------------------------------------------------------

_BENCH_LINE_RE = re.compile(
    r"^(?:(INPUT|OUTPUT)\s*\(\s*([^\s()]+)\s*\)"
    r"|([^\s=()]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\))$"
)


def parse_bench(text: str) -> Circuit:
    inputs: list[str] = []
    outputs: list[str] = []
    gates_src: list[tuple[GateKind, str, list[str], int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _BENCH_LINE_RE.match(line)
        if not m:
            raise ParseError(f"unrecognized line: '{line}'", lineno)
        if m.group(1) == "INPUT":
            inputs.append(m.group(2))
        elif m.group(1) == "OUTPUT":
            outputs.append(m.group(2))
        else:
            out, kw, args = m.group(3), m.group(4), m.group(5)
            kind = _BENCH_KINDS.get(kw.upper())
            if kind is None:
                raise ParseError(f"unknown gate keyword '{kw}'", lineno)
            ins = [a.strip() for a in args.split(",") if a.strip()]
            gates_src.append((kind, out, ins, lineno))

    return _build(inputs + outputs, inputs, outputs, gates_src)


# ---------------------------------------------------------------------------
# Format dispatch and constraint files
# ---------------------------------------------------------------------------

_PARSERS = {"verilog": parse_verilog, "blif": parse_blif, "bench": parse_bench}
_EXTENSIONS = {".v": "verilog", ".blif": "blif", ".bench": "bench"}


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; undecodable bytes are a ParseError naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_file(path: str | Path, fmt: str | None = None) -> Circuit:
    path = Path(path)
    if fmt is None:
        fmt = _EXTENSIONS.get(path.suffix.lower())
        if fmt is None:
            raise ParseError(
                f"cannot infer netlist format from extension '{path.suffix}'; pass the format explicitly"
            )
    if fmt not in _PARSERS:
        raise ParseError(f"unknown netlist format '{fmt}'")
    return _PARSERS[fmt](read_text(path))


def parse_constraints(text: str, circuit: Circuit) -> ConstraintSet:
    """Constraint file: one `<net_name> <0|1>` per line, '#' comments."""
    pins: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("0", "1"):
            raise ParseError(f"expected '<net_name> <0|1>', got '{line}'", lineno)
        name, bit = parts
        if name in pins:
            raise ParseError(f"duplicate pin for net '{name}'", lineno)
        pins[name] = int(bit)
    return ConstraintSet.from_names(circuit, pins)
