import ast
import csv
import errno
import hashlib
import itertools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circsat
from circsat import cli, sampler
from circsat.cli import main
from circsat.sampler import SolutionSet

from helpers import DATA, add_rows


def run(*argv):
    return main(list(argv))


@pytest.fixture
def c17(tmp_path):
    shutil.copy(DATA / "c17.bench", tmp_path / "c17.bench")
    (tmp_path / "pin2.txt").write_text("# second output\n23 1\n")
    return tmp_path


@pytest.fixture
def c15(tmp_path):
    shutil.copy(DATA / "c15.v", tmp_path / "c15.v")
    (tmp_path / "g19.txt").write_text("G19 1\n")
    return tmp_path


@pytest.fixture
def and_not(tmp_path):
    """z = AND(a, NOT b) with z pinned to 1: the only solution is a=1, b=0."""
    (tmp_path / "and_not.bench").write_text(
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nnb = NOT(b)\nz = AND(a, nb)\n"
    )
    (tmp_path / "z1.txt").write_text("z 1\n")
    return tmp_path


def verify(d, circuit, pins, solutions):
    return run("verify", "--circuit", str(d / circuit), "--constraints", str(d / pins),
               "--solutions", str(d / solutions))


NOT_UTF8 = b"\xff\xfe23 1\n"  # 0xff never starts a UTF-8 sequence


def sample_args(d, circuit, pins, **over):
    args = {
        "--circuit": str(d / circuit),
        "--constraints": str(d / pins),
        "--batch": "10000",
        "--lr": "15",
        "--iters": "10",
        "--seed": "7",
        "--out": str(d / "solutions.txt"),
        "--stats": str(d / "stats.json"),
    }
    args.update({k: str(v) for k, v in over.items()})
    return ["sample"] + [t for kv in args.items() for t in kv]


@pytest.fixture
def const_and(tmp_path):
    """y is the constant 1 and z = AND(a, b)."""
    (tmp_path / "c.blif").write_text(
        ".model t\n.inputs a b\n.outputs y z\n.names y\n1\n.names a b z\n11 1\n.end\n"
    )
    return tmp_path


class TestSample:
    def test_c17_finds_all_18_full_solutions(self, c17):
        argv = sample_args(c17, "c17.bench", "pin2.txt", **{"--dedup": "all"})
        assert run(*argv) == 0
        lines = (c17 / "solutions.txt").read_text().splitlines()
        assert lines[0] == "1,2,3,6,7"
        assert len(lines) - 1 == 18
        stats = json.loads((c17 / "stats.json").read_text())
        assert stats["total_unique"] == 18
        cum = [it["cumulative_unique"] for it in stats["iterations"]]
        assert cum == sorted(cum) and cum[-1] == 18

    def test_duplicate_pin_is_input_error(self, c17, capsys):
        (c17 / "dup.txt").write_text("23 1\n23 0\n")
        assert run(*sample_args(c17, "c17.bench", "dup.txt")) == 2
        assert "duplicate pin" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, c17):
        assert run(*sample_args(c17, "nope.bench", "pin2.txt")) == 2

    def test_same_seed_byte_identical(self, c15):
        argv1 = sample_args(c15, "c15.v", "g19.txt", **{"--batch": "2000", "--iters": "3"})
        assert run(*argv1) == 0
        first = (c15 / "solutions.txt").read_bytes()
        assert run(*argv1) == 0
        assert (c15 / "solutions.txt").read_bytes() == first

    def test_threads_do_not_change_solutions(self, c15):
        base = {"--batch": "20000", "--iters": "3"}
        assert run(*sample_args(c15, "c15.v", "g19.txt", **base, **{"--threads": "1"})) == 0
        one = (c15 / "solutions.txt").read_bytes()
        assert run(*sample_args(c15, "c15.v", "g19.txt", **base, **{"--threads": "8"})) == 0
        assert (c15 / "solutions.txt").read_bytes() == one

    def test_pin_on_constant_net_is_input_error(self, tmp_path, capsys):
        (tmp_path / "const.blif").write_text(
            ".model t\n.inputs a\n.outputs y\n.names y\n1\n.end\n"
        )
        (tmp_path / "y1.txt").write_text("y 1\n")
        assert run(*sample_args(tmp_path, "const.blif", "y1.txt")) == 2
        assert "error: constraint cone contains no primary inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("pins", ["y 0\n", "y 0\nz 1\n", "z 1\ny 0\n"])
    def test_pin_against_a_constant_is_unsatisfiable(self, const_and, capsys, pins):
        (const_and / "p.txt").write_text(pins)
        assert run(*sample_args(const_and, "c.blif", "p.txt", **{"--batch": "64"})) == 2
        assert "error: unsatisfiable: net y is constant 1" in capsys.readouterr().err
        assert not (const_and / "solutions.txt").exists()

    def test_only_a_constant_pin_that_holds_says_every_assignment_meets_it(self, const_and, capsys):
        (const_and / "p.txt").write_text("y 1\n")
        assert run(*sample_args(const_and, "c.blif", "p.txt", **{"--batch": "64"})) == 2
        assert "every assignment meets the pins" in capsys.readouterr().err

    def test_constant_pin_that_holds_is_dropped(self, const_and):
        (const_and / "both.txt").write_text("y 1\nz 1\n")
        (const_and / "z.txt").write_text("z 1\n")
        assert run(*sample_args(const_and, "c.blif", "both.txt", **{"--batch": "256"})) == 0
        both = (const_and / "solutions.txt").read_bytes()
        assert run(*sample_args(const_and, "c.blif", "z.txt", **{"--batch": "256"})) == 0
        assert (const_and / "solutions.txt").read_bytes() == both == b"a,b\n11\n"

    def test_batch_beyond_physical_memory_is_input_error(self, c17, capsys):
        # Refused by the estimate before any allocation: numpy's own failure
        # would read "Unable to allocate".
        argv = sample_args(c17, "c17.bench", "pin2.txt", **{"--batch": "1000000000000"})
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "error: batch of 1000000000000 rows needs about" in err
        assert "of physical memory" in err

    def test_negative_threads_is_input_error(self, c17, capsys):
        assert run(*sample_args(c17, "c17.bench", "pin2.txt", **{"--threads": "-3"})) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--lr", "nan"), ("--lr", "inf"), ("--lr", "1e39"), ("--init-range", "inf"), ("--init-range", "1e39")],
    )
    def test_non_finite_lr_or_init_range_is_input_error(self, c17, capsys, flag, value):
        assert run(*sample_args(c17, "c17.bench", "pin2.txt", **{flag: value})) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not (c17 / "solutions.txt").exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_input_error(self, c17, capsys, seed):
        # -1 and 2**64 - 1 once drew the same stream.
        assert run(*sample_args(c17, "c17.bench", "pin2.txt", **{"--seed": seed})) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not (c17 / "solutions.txt").exists()

    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_missing_output_directory_is_input_error_before_sampling(
        self, c17, capsys, monkeypatch, flag
    ):
        def no_run(*args):
            raise AssertionError("sampled although the output cannot be written")

        monkeypatch.setattr(cli, "run_sampling", no_run)
        target = c17 / "missing" / "dir" / "x.txt"
        assert run(*sample_args(c17, "c17.bench", "pin2.txt", **{flag: target})) == 2
        assert f"directory '{target.parent}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_output_naming_a_directory_is_input_error_before_sampling(
        self, c17, capsys, monkeypatch, flag
    ):
        def no_run(*args):
            raise AssertionError("sampled although the output cannot be written")

        monkeypatch.setattr(cli, "run_sampling", no_run)
        target = c17 / "a_dir"
        target.mkdir()
        assert run(*sample_args(c17, "c17.bench", "pin2.txt", **{flag: target})) == 2
        assert f"'{target}' is a directory" in capsys.readouterr().err

    def test_stats_carry_satisfied_rows(self, c17):
        argv = sample_args(c17, "c17.bench", "pin2.txt", **{"--batch": "800", "--iters": "3"})
        assert run(*argv) == 0
        stats = json.loads((c17 / "stats.json").read_text())["iterations"]
        assert all(it["new_unique"] <= it["satisfied_rows"] <= 800 for it in stats)
        assert stats[-1]["satisfied_rows"] > 0

    def test_two_workers_write_the_file_one_worker_writes(self, c15, monkeypatch):
        # Chunks of 8 rows on two cores: a forked worker draws and steps
        # every other chunk of the 200 rows.
        monkeypatch.setattr(sampler, "_CHUNK_ROWS", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        starts = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(self):
            starts.append(self)
            return real_start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        files = []
        for threads, children in (("1", 0), ("2", 1), ("0", 1)):
            starts.clear()
            argv = sample_args(c15, "c15.v", "g19.txt",
                               **{"--batch": "200", "--iters": "4", "--threads": threads})
            assert run(*argv) == 0
            assert len(starts) == children
            config = json.loads((c15 / "stats.json").read_text())["config"]
            assert (config["threads"], config["workers"]) == (int(threads), children + 1)
            files.append((c15 / "solutions.txt").read_bytes())
        assert files[0] == files[1] == files[2]
        assert files[0].count(b"\n") > 2

    # The sha256 of the solutions file, so that a change meant to keep the
    # output keeps it byte for byte.  A change that alters the draw or the
    # step on purpose updates these digests and says so.
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("circuit, pins, flags, rows, digest", [
        ("c17.bench", "23 1\n", ("--dedup", "all"), 14,
         "a8b81b31b464b2fca03fe62b7719ad19a15bf1b0fe3a44cbee41a64952cfcaca"),
        ("c15.blif", "G22 0\n", ("--emit-all-inputs",), 15,
         "bc8beef925dbfe3c8612a15b21011c6b63d5b9d4d12b03990b4ee1745128ec02"),
    ])
    def test_solutions_file_bytes_are_pinned(self, tmp_path, monkeypatch, threads, circuit, pins,
                                             flags, rows, digest):
        # Chunks of 7 rows, on two cores at two threads.
        monkeypatch.setattr(sampler, "_CHUNK_ROWS", 7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        shutil.copy(DATA / circuit, tmp_path / circuit)
        (tmp_path / "pins.txt").write_text(pins)
        argv = sample_args(tmp_path, circuit, "pins.txt",
                           **{"--batch": "300", "--iters": "6", "--seed": "71", "--threads": threads})
        assert run(*argv, *flags) == 0
        text = (tmp_path / "solutions.txt").read_bytes()
        assert text.count(b"\n") - 1 == rows
        assert hashlib.sha256(text).hexdigest() == digest

    def test_emit_all_inputs_header(self, c15):
        argv = sample_args(c15, "c15.v", "g19.txt", **{"--batch": "500", "--iters": "2"})
        assert run(*argv, "--emit-all-inputs") == 0
        header = (c15 / "solutions.txt").read_text().splitlines()[0]
        assert header == "G1,G2,G3,G6,G7"


def per_row_text(result, emit_all_inputs):
    """The solutions file written one decoded row at a time."""
    if emit_all_inputs or result.dedup_scope == "all":
        header, rows = ",".join(result.all_input_names), result.full_rows()
    else:
        header, rows = ",".join(result.input_names), result.cone_rows()
    lines = [header] + [row.tobytes().decode() for row in rows + ord("0")]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("emit_all_inputs", [False, True])
@pytest.mark.parametrize("scope", ["cone", "all"])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_solutions_text_equals_per_row_formula(count, scope, emit_all_inputs):
    rng = np.random.default_rng(count)
    rows = rng.integers(0, 2, size=(count, 5), dtype=np.uint8)
    # Distinct cone bits, so that no two rows share a key in either scope.
    cone_bits = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.uint8)
    rows[:, [1, 3, 4]] = cone_bits[rng.permutation(8)[:count]]
    result = SolutionSet(all_input_names=list("abcde"), cone_cols=[1, 3, 4], dedup_scope=scope)
    assert add_rows(result, rows) == count
    assert result.input_names == ["b", "d", "e"]
    text = cli._solutions_text(result, emit_all_inputs)
    assert text == per_row_text(result, emit_all_inputs)
    assert len(text.splitlines()) == 1 + count


FLOATING_NET_V = "module t(a,y);\ninput a;\noutput y;\nwire w;\nnot g1(y,a);\nendmodule\n"


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_pin_on_a_net_nothing_drives_or_reads_is_input_error(tmp_path, capsys, command):
    (tmp_path / "t.v").write_text(FLOATING_NET_V)
    (tmp_path / "w.txt").write_text("w 1\n")
    (tmp_path / "rows.txt").write_text("a\n1\n")
    if command == "sample":
        code = run(*sample_args(tmp_path, "t.v", "w.txt", **{"--batch": "10", "--iters": "1"}))
    else:
        code = verify(tmp_path, "t.v", "w.txt", "rows.txt")
    assert code == 2
    assert "error: pinned net 'w' is neither an input nor driven by a gate" in capsys.readouterr().err
    assert not (tmp_path / "solutions.txt").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("command,flag", [("sample", "--out"), ("sample", "--stats"),
                                          ("export-cnf", "--out")])
def test_failed_output_write_is_input_error(c17, capsys, command, flag):
    if command == "sample":
        argv = sample_args(c17, "c17.bench", "pin2.txt",
                           **{"--batch": "100", "--iters": "1", flag: "/dev/full"})
    else:
        argv = ["export-cnf", "--circuit", str(c17 / "c17.bench"), "--out", "/dev/full"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write '/dev/full': {os.strerror(errno.ENOSPC)}" in err



def cli_subprocess(argv, stdout, buffered=False):
    """`circsat argv` in a fresh interpreter, with standard output on the open file `stdout`."""
    src = str(Path(circsat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    python = [sys.executable, "-c", "import sys; from circsat.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.run(python + argv, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["info", "export-cnf", "sample", "verify"])
def test_failed_write_to_standard_output_is_one_input_error(c17, command, buffered):
    # A buffered write fails at the flush in `main`, an unbuffered one at once.
    argv = {
        "info": ["info", "--json", "--circuit", str(c17 / "c17.bench")],
        "export-cnf": ["export-cnf", "--circuit", str(c17 / "c17.bench")],
        "sample": sample_args(c17, "c17.bench", "pin2.txt", **{"--batch": "100", "--iters": "1"}),
        "verify": ["verify", "--circuit", str(c17 / "c17.bench"), "--constraints", str(c17 / "pin2.txt"),
                   "--solutions", str(c17 / "rows.txt")],
    }[command]
    (c17 / "rows.txt").write_text("1,2,3,6,7\n00000\n")
    with open("/dev/full", "w") as full:
        proc = cli_subprocess(argv, full, buffered)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


def test_internal_fault_is_not_an_input_error(c17, monkeypatch):
    def fail(*args):
        raise RuntimeError("worker 1 died")
    monkeypatch.setattr(cli, "run_sampling", fail)
    with pytest.raises(RuntimeError, match="worker 1 died"):
        run(*sample_args(c17, "c17.bench", "pin2.txt"))


def test_only_main_prints_an_error_and_exits_2():
    """A subcommand raises on bad input; it neither prints `error: ...` nor returns EXIT_INPUT."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    exit_input, error_prints = [], []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "EXIT_INPUT":
                exit_input.append(owner or ("definition" if isinstance(node.ctx, ast.Store) else None))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
                    and node.args and "error:" in ast.unparse(node.args[0])):
                error_prints.append(owner)
    assert sorted(set(exit_input)) == ["definition", "main"]
    assert error_prints == ["main"]

def test_files_are_read_and_written_as_utf8_whatever_the_locale(c17):
    """Under `-X warn_default_encoding` a file opened in the locale's encoding warns; here that fails."""
    src = str(Path(circsat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
              "-c", "import sys; from circsat.cli import main; sys.exit(main(sys.argv[1:]))"]
    for argv in (sample_args(c17, "c17.bench", "pin2.txt", **{"--batch": "1000", "--iters": "3"}),
                 ["verify", "--circuit", str(c17 / "c17.bench"), "--constraints", str(c17 / "pin2.txt"),
                  "--solutions", str(c17 / "solutions.txt")]):
        proc = subprocess.run(python + argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_sample_then_verify_ok(self, c15):
        argv = sample_args(c15, "c15.v", "g19.txt", **{"--batch": "2000", "--iters": "3"})
        assert run(*argv) == 0
        code = run(
            "verify",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--solutions", str(c15 / "solutions.txt"),
        )
        assert code == 0

    def test_flipped_bit_fails_with_3(self, c15):
        # The known-good row (G3,G6,G7)=(0,1,1) with G7 flipped to 0.
        (c15 / "bad.txt").write_text("G3,G6,G7\n010\n")
        code = run(
            "verify",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--solutions", str(c15 / "bad.txt"),
        )
        assert code == 3

    def test_good_row_passes(self, c15):
        (c15 / "good.txt").write_text("G3,G6,G7\n011\n")
        assert run(
            "verify",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--solutions", str(c15 / "good.txt"),
        ) == 0

    def test_empty_file_warns_and_passes(self, c15, capsys):
        (c15 / "empty.txt").write_text("")
        assert run(
            "verify",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--solutions", str(c15 / "empty.txt"),
        ) == 0
        assert "empty" in capsys.readouterr().err

    def test_row_arity_mismatch_is_input_error(self, c15):
        (c15 / "short.txt").write_text("G3,G6,G7\n01\n")
        assert run(
            "verify",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--solutions", str(c15 / "short.txt"),
        ) == 2


    def test_non_utf8_solutions_is_input_error(self, and_not, capsys):
        (and_not / "sol.txt").write_bytes(NOT_UTF8)
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 2
        assert "sol.txt: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_circuit_is_input_error(self, and_not, capsys):
        (and_not / "bad.bench").write_bytes(NOT_UTF8)
        (and_not / "sol.txt").write_text("a,b\n10\n")
        assert verify(and_not, "bad.bench", "z1.txt", "sol.txt") == 2
        assert "bad.bench: not UTF-8 text" in capsys.readouterr().err

    def test_header_missing_cone_input_is_input_error(self, and_not, capsys):
        # Filling the missing b with 0 would make the row pass.
        (and_not / "sol.txt").write_text("a\n1\n")
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 2
        assert "'b'" in capsys.readouterr().err

    def test_duplicate_header_column_is_input_error(self, and_not, capsys):
        (and_not / "sol.txt").write_text("a,a,b\n010\n")
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 2
        assert "duplicate header column 'a'" in capsys.readouterr().err

    def test_header_column_that_is_not_an_input_is_input_error(self, and_not, capsys):
        (and_not / "sol.txt").write_text("a,b,z\n101\n")
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 2
        assert "header column 'z' is not a primary input" in capsys.readouterr().err

    def test_reports_first_failing_line(self, and_not, capsys):
        (and_not / "sol.txt").write_text("b,a\n01\n11\n00\n")
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 3
        assert "line 3: row '11' gives {'z': 0}" in capsys.readouterr().out

    def test_messages_name_the_line_of_the_file_after_blank_lines(self, c17, and_not, capsys):
        (c17 / "sol.txt").write_text("1,2,3,6,7\n01001\n\n1x111\n")
        assert verify(c17, "c17.bench", "pin2.txt", "sol.txt") == 2
        assert capsys.readouterr().err == "error: line 4: expected 5 bits, got '1x111'\n"
        (and_not / "sol.txt").write_text("\nb,a\n\n01\n\n11\n")
        assert verify(and_not, "and_not.bench", "z1.txt", "sol.txt") == 3
        assert "verification failed at line 6: row '11' gives {'z': 0}" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["01\uff1101", "0\u00e9101", "01201", "0110"])
    def test_a_bad_row_among_hundreds_names_its_own_line(self, c17, capsys, bad):
        # Five characters but not five bytes, a digit other than 0 and 1, or a
        # short row whose missing bit a long row later makes up in the bytes.
        rng = np.random.default_rng(5)
        lines = ["1,2,3,6,7", ""]
        for k, row in enumerate(rng.integers(0, 2, size=(400, 5)).astype(str)):
            if k % 50 == 0:
                lines.append("")
            if k == 321:
                lines.append(bad)
                line = len(lines)
            lines.append("".join(row))
        lines.append("0" * (10 - len(bad)) if len(bad) < 5 else "")
        (c17 / "sol.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert verify(c17, "c17.bench", "pin2.txt", "sol.txt") == 2
        assert capsys.readouterr().err == f"error: line {line}: expected 5 bits, got '{bad}'\n"


    @pytest.mark.parametrize(
        "pins,rows,code",
        [
            ("y 1\n", "a,b\n11\n01\n", 0),
            ("y 1\nz 1\n", "a,b\n11\n", 0),
            ("y 0\n", "a,b\n11\n", 3),
            ("y 0\nz 1\n", "a,b\n11\n", 3),
            ("y 0\n", "a,b\n", 0),
        ],
    )
    def test_pin_on_a_constant_is_checked_like_any_pin(self, const_and, capsys, pins, rows, code):
        # A constant that meets its pin passes every row, one that does not
        # fails the first; an empty file has nothing to verify.
        (const_and / "p.txt").write_text(pins)
        (const_and / "rows.txt").write_text(rows)
        assert run(
            "verify",
            "--circuit", str(const_and / "c.blif"),
            "--constraints", str(const_and / "p.txt"),
            "--solutions", str(const_and / "rows.txt"),
        ) == code
        if code == 3:
            assert "verification failed at line 2: row '11' gives {'y': 1}" in capsys.readouterr().out


class TestExportCnf:
    def test_c15_export_and_counts(self, c15, capsys):
        out = c15 / "c15.cnf"
        code = run(
            "export-cnf",
            "--circuit", str(c15 / "c15.v"),
            "--constraints", str(c15 / "g19.txt"),
            "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "variables" in err and "clauses" in err
        text = out.read_text()
        header = next(ln for ln in text.splitlines() if ln.startswith("p cnf"))
        _, _, nvars, nclauses = header.split()
        body = [ln for ln in text.splitlines() if ln and not ln[0] in "cp"]
        assert len(body) == int(nclauses)

    def test_out_in_missing_directory_is_input_error(self, c17, capsys):
        target = c17 / "missing" / "x.cnf"
        assert run("export-cnf", "--circuit", str(c17 / "c17.bench"), "--out", str(target)) == 2
        assert f"directory '{target.parent}'" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_out_naming_a_directory_is_input_error(self, c17, capsys):
        assert run("export-cnf", "--circuit", str(c17 / "c17.bench"), "--out", str(c17)) == 2
        assert f"'{c17}' is a directory" in capsys.readouterr().err

    def test_no_constraints_means_no_unit_pins(self, c17):
        out = c17 / "c17.cnf"
        assert run("export-cnf", "--circuit", str(c17 / "c17.bench"), "--out", str(out)) == 0
        body = [ln for ln in out.read_text().splitlines() if ln and ln[0] not in "cp"]
        assert all(len(ln.split()) > 2 for ln in body)  # no unit clauses

    def test_non_utf8_constraints_is_input_error(self, c17, capsys):
        (c17 / "bad.txt").write_bytes(NOT_UTF8)
        code = run("export-cnf", "--circuit", str(c17 / "c17.bench"),
                   "--constraints", str(c17 / "bad.txt"))
        assert code == 2
        assert "bad.txt: not UTF-8 text" in capsys.readouterr().err

    def test_parse_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        assert run("export-cnf", "--circuit", str(bad)) == 2

    def test_without_out_writes_dimacs_to_stdout(self, c17, capsys):
        assert run("export-cnf", "--circuit", str(c17 / "c17.bench")) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[:8] == [
            "c input 1 1", "c input 2 2", "c input 3 3", "c input 6 4", "c input 7 5",
            "c output 22 6", "c output 23 7", "p cnf 11 18",
        ]
        assert err == "11 variables, 18 clauses\n"


class TestInfo:
    def test_c17_info_json(self, c17, capsys):
        assert run("info", "--circuit", str(c17 / "c17.bench"), "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["inputs"], info["outputs"], info["gates"]) == (5, 2, 6)
        assert info["gate_histogram"] == {"NAND": 6}
        assert info["max_fan_in"] == 2
        assert info["depth"] == 3

    def test_one_not_circuit(self, tmp_path, capsys):
        p = tmp_path / "tiny.bench"
        p.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert run("info", "--circuit", str(p), "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["inputs"], info["outputs"], info["gates"]) == (1, 1, 1)

    def test_c17_info_text(self, c17, capsys):
        assert run("info", "--circuit", str(c17 / "c17.bench")) == 0
        assert capsys.readouterr().out.splitlines() == [
            "inputs:     5", "outputs:    2", "gates:      6", "nets:       11",
            "max fan-in: 2", "depth:      3", "  NAND   6",
        ]

    def test_non_utf8_circuit_is_input_error(self, tmp_path, capsys):
        (tmp_path / "bad.bench").write_bytes(NOT_UTF8)
        assert run("info", "--circuit", str(tmp_path / "bad.bench")) == 2
        assert "bad.bench: not UTF-8 text" in capsys.readouterr().err

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.v"
        p.write_text("module t(a); garbage")
        assert run("info", "--circuit", str(p)) == 2

    @pytest.mark.parametrize("module, message", [
        ("module t(a,w,y); input a; output y; wire w; not N0(w,a); buf B0(y,w); endmodule",
         "port 'w' is not declared as input or output"),
        ("module t(a); input a,b; output y; and A0(y,a,b); endmodule",
         "input 'b' is not in the module's port list"),
    ])
    def test_verilog_port_list_mismatch_is_input_error(self, tmp_path, capsys, module, message):
        p = tmp_path / "bad.v"
        p.write_text(module)
        assert run("info", "--circuit", str(p)) == 2
        assert message in capsys.readouterr().err

    def test_verilog_statement_error_is_one_line(self, tmp_path, capsys):
        p = tmp_path / "bad.v"
        p.write_text("module t(a,y);\ninput a; output y;\n  and A0(y,\n a a);\nendmodule\n")
        assert run("info", "--circuit", str(p)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: malformed statement 'and A0(y, a a)' at line 3"]


class TestBench:
    def test_learning_rate_sweep(self, c17, capsys):
        manifest = {
            "cells": [
                {
                    "circuit": "c17.bench",
                    "constraints": "pin2.txt",
                    "batch": 2000,
                    "lr": [1, 5, 15],
                    "iters": 4,
                    "seed": 3,
                }
            ]
        }
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        out_dir = c17 / "bench_out"
        code = run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(out_dir))
        assert code == 0
        with open(out_dir / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:9] == ["cell", "circuit", "lr", "seed", "batch", "iters",
                                     "init_range", "dedup", "iteration"]
        assert len(rows) == 3 * 4  # three lr cells, four iterations each
        assert [r["lr"] for r in rows[::4]] == ["1", "5", "15"]
        # Cumulative series monotone per cell.
        for label in ("cell000", "cell001", "cell002"):
            series = [int(r["cumulative_unique"]) for r in rows if r["cell"] == label]
            assert series == sorted(series)
        assert len(list(out_dir.glob("*.stats.json"))) == 3

    def test_every_sampling_option_can_be_a_grid(self, c17):
        manifest = {"cells": [{"circuit": "c17.bench", "constraints": "pin2.txt", "batch": 500,
                               "iters": 2, "init_range": [1, 3], "dedup": ["cone", "all"]}]}
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out")) == 0
        configs = [json.loads((c17 / "out" / f"cell00{i}.stats.json").read_text())["config"]
                   for i in range(4)]
        assert not (c17 / "out" / "cell004.stats.json").exists()
        assert [(c["init_range"], c["dedup"]) for c in configs] == [
            (1.0, "cone"), (1.0, "all"), (3.0, "cone"), (3.0, "all")]
        with open(c17 / "out" / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["iters"], r["init_range"], r["dedup"]) for r in rows[::2]] == [
            ("2", "1", "cone"), ("2", "1", "all"), ("2", "3", "cone"), ("2", "3", "all")]

    def test_single_cell_matches_cmd_sample(self, c17):
        manifest = {
            "cells": [
                {"circuit": "c17.bench", "constraints": "pin2.txt",
                 "batch": 3000, "lr": 15, "iters": 3, "seed": 11}
            ]
        }
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out")) == 0
        bench_stats = json.loads((c17 / "out" / "cell000.stats.json").read_text())
        argv = sample_args(
            c17, "c17.bench", "pin2.txt",
            **{"--batch": "3000", "--iters": "3", "--seed": "11"},
        )
        assert run(*argv) == 0
        sample_stats = json.loads((c17 / "stats.json").read_text())
        keys = ["new_unique", "cumulative_unique"]
        assert [{k: it[k] for k in keys} for it in bench_stats["iterations"]] == [
            {k: it[k] for k in keys} for it in sample_stats["iterations"]
        ]

    def test_cell_without_options_takes_the_sample_defaults(self, c17):
        manifest = {"cells": [{"circuit": "c17.bench", "constraints": "pin2.txt",
                               "init_range": None}]}
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out")) == 0
        bench_stats = json.loads((c17 / "out" / "cell000.stats.json").read_text())
        assert run("sample", "--circuit", str(c17 / "c17.bench"),
                   "--constraints", str(c17 / "pin2.txt"),
                   "--out", str(c17 / "solutions.txt"), "--stats", str(c17 / "stats.json")) == 0
        sample_stats = json.loads((c17 / "stats.json").read_text())
        assert bench_stats["config"] == sample_stats["config"] == {
            "circuit": str(c17 / "c17.bench"), "constraints": str(c17 / "pin2.txt"),
            "batch": 10000, "lr": 15.0, "iters": 10, "seed": 0, "init_range": 1.0,
            "dedup": "cone", "threads": 1, "workers": 1,
        }
        assert list(sample_stats["iterations"][0]) == [
            "iteration", "new_unique", "cumulative_unique", "elapsed_ms", "loss_mean",
            "satisfied_rows", "wait_ms",
        ]

    def test_rows_carry_satisfied_rows(self, c17):
        manifest = {"cells": [{"circuit": "c17.bench", "constraints": "pin2.txt",
                               "batch": 700, "lr": 15, "iters": 3, "seed": 4}]}
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out")) == 0
        stats = json.loads((c17 / "out" / "cell000.stats.json").read_text())["iterations"]
        with open(c17 / "out" / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["satisfied_rows"]) for r in rows] == [it["satisfied_rows"] for it in stats]
        assert [float(r["wait_ms"]) for r in rows] == [0.0] * 3  # one worker waits for none

    def test_failed_cell_gives_exit_4_and_continues(self, c17):
        manifest = {
            "cells": [
                {"circuit": "missing.bench", "constraints": "pin2.txt",
                 "batch": 100, "lr": 15, "iters": 1, "seed": 0},
                {"circuit": "c17.bench", "constraints": "pin2.txt",
                 "batch": 100, "lr": 15, "iters": 1, "seed": 0},
            ]
        }
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        code = run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out"))
        assert code == 4
        assert (c17 / "out" / "cell000.error.txt").exists()
        assert (c17 / "out" / "cell001.stats.json").exists()

    C17_CELL = {"circuit": "c17.bench", "constraints": "pin2.txt", "batch": 100, "iters": 1}

    def test_negative_threads_is_one_input_error_before_any_cell(self, c17, capsys):
        (c17 / "manifest.json").write_text(json.dumps({"cells": [self.C17_CELL, self.C17_CELL]}))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out"), "--threads", "-1") == 2
        err = capsys.readouterr().err
        assert err.count("error: threads must be 0 (one per CPU) or positive") == 1
        assert "FAILED" not in err
        assert not list(c17.glob("**/*.error.txt"))

    @pytest.mark.parametrize("manifest,out_dir,code,message", [
        ([1], "out", 2, "error: bad manifest: expected a JSON object"),
        ({"cells": [1]}, "out", 2, "error: bad manifest: cell 0 is not a JSON object"),
        ({"cells": [C17_CELL | {"circuit": 17}]}, "out", 2, "error: bad manifest: cell 0 needs"),
        ({"cells": [C17_CELL | {"constraints": ["pin2.txt"]}]}, "out", 2, "error: bad manifest: cell 0 needs"),
        ({"cells": [C17_CELL | {"format": ["bench"]}]}, "out", 2, "error: bad manifest: cell 0 needs"),
        ({"cells": [C17_CELL | {"batch": "100"}]}, "out", 4,
         "cell000: FAILED: batch_size must be an integer, got '100'"),
        ({"cells": [C17_CELL]}, "c17.bench", 2, "error: cannot create output directory"),
    ], ids=["not-an-object", "cell-not-an-object", "circuit-not-a-string",
            "constraints-not-a-string", "format-not-a-string", "batch-a-string", "out-dir-a-file"])
    def test_malformed_manifest_or_out_dir_is_reported(self, c17, capsys, manifest, out_dir, code, message):
        (c17 / "manifest.json").write_text(json.dumps(manifest))
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / out_dir)) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["cell000.stats.json", "bench.csv"])
    def test_failed_write_is_input_error(self, c17, capsys, blocked):
        (c17 / "manifest.json").write_text(json.dumps({"cells": [self.C17_CELL]}))
        (c17 / "out" / blocked).mkdir(parents=True)
        assert run("bench", "--manifest", str(c17 / "manifest.json"),
                   "--out-dir", str(c17 / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write '{c17 / 'out' / blocked}': {os.strerror(errno.EISDIR)}" in err

    def test_empty_manifest_is_input_error(self, tmp_path):
        (tmp_path / "m.json").write_text("{}")
        assert run("bench", "--manifest", str(tmp_path / "m.json"),
                   "--out-dir", str(tmp_path / "out")) == 2
