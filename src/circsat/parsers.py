"""Netlist frontends: structural Verilog subset, BLIF subset and ISCAS .bench.

Each frontend only recognises its syntax and hands (inputs, outputs, gate
sources) to one builder, which numbers the nets, rejects a duplicate driver
or a bad fan-in at the gate's source line and validates the Circuit; so all
three formats report such errors the same way.  Verilog is read statement
by statement, split at `;`, and a syntax error names the line where its
statement starts.  Netlists are only read here; nothing in the package
writes one.
"""

from __future__ import annotations

import functools
import itertools
import re
from pathlib import Path

from .circuit import Circuit, ConstraintSet, Gate, GateKind


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line


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

_NAME = r"[A-Za-z_][A-Za-z0-9_$]*"
_NAMES = rf"{_NAME}(?:\s*,\s*{_NAME})*"
# A declaration `input|output|wire NAMES`, or `KEYWORD NAME ( NAMES )`: the module or a gate.
_STATEMENT_RE = re.compile(
    rf"\s*(?:(input|output|wire)\s+({_NAMES})|({_NAME})\s+{_NAME}\s*\(\s*({_NAMES})\s*\))\s*"
)


def parse_verilog(text: str) -> Circuit:
    *statements, tail = "\n".join(line.split("//", 1)[0] for line in text.splitlines()).split(";")
    ports: list[str] | None = None
    declarations: dict[str, list[str]] = {"input": [], "output": [], "wire": []}
    declared_inputs, declared_outputs, declared_wires = declarations.values()
    gates_src: list[tuple[GateKind, str, list[str], int]] = []

    line = 1  # where the next statement's text begins; its errors name its first non-blank line
    for stmt in statements:
        at = line + stmt.count("\n", 0, len(stmt) - len(stmt.lstrip()))
        line += stmt.count("\n")
        m = _STATEMENT_RE.fullmatch(stmt)
        if m is None:
            shown = " ".join(stmt.split())
            raise ParseError(f"malformed statement '{shown}'" if shown else "empty statement", at)
        decl, decl_names, keyword, args = m.groups()
        if (keyword == "module") != (ports is None):
            raise ParseError("more than one module" if ports is not None else
                             f"expected 'module', found '{decl or keyword}'", at)
        names = re.findall(_NAME, decl_names or args)
        if keyword == "module":
            ports = names
        elif decl:
            declarations[decl].extend(names)
        elif keyword in _VERILOG_KINDS:  # the output, then the inputs; `_build` checks the fan-in
            gates_src.append((_VERILOG_KINDS[keyword], names[0], names[1:], at))
        else:
            raise ParseError(f"unsupported construct '{keyword}'", at)
    if ports is None or tail.split() != ["endmodule"]:
        at = line + tail.count("\n", 0, len(tail) - len(tail.lstrip()))
        raise ParseError("expected 'module'" if ports is None else
                         "expected 'endmodule' as the only text after the last ';'", at)

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


_CONTINUED_RE = re.compile(r"^(?:[^\n]*\\\n)+[^\n]*", re.MULTILINE)


def parse_blif(text: str) -> Circuit:
    # Join `\` continuations, padded with blank lines to keep line numbers; strip comments.
    if "\\\n" in text:
        text = _CONTINUED_RE.sub(lambda m: m[0].replace("\\\n", " ") + "\n" * m[0].count("\n"), text)
    lines = text.splitlines()
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
        return Path(path).read_text(encoding="utf-8")
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
