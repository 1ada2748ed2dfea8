"""Gradient-descent sampling loop.

A batch of learnable pre-activations V (one row per sample) is pushed through
a sigmoid into input probabilities, the relaxed circuit and an l2 loss against
the pinned targets.  After every plain-GD step the soft values are hardened to
bits, verified against the exact Boolean simulator and folded into a
deduplicated solution set, with per-iteration discovery statistics.

Only inputs in the support cone of the constraints are trained; the rest are
don't-cares that keep their initial draws.  `run_sampling` compiles the cone
once (`Circuit.compile`) and runs the relaxed passes, the step and the oracle
on that dense program alone: `loss_and_grad` takes the program and a chunk's
input-major cone rows U and returns dL/dU input-major, and the oracle is the
program's batched `eval_batch`.  V is drawn from one stream seeded by `seed`
in chunks of rows, and successive draws continue the stream, so a batch is a
prefix of any larger batch.  The sampler keeps V input-major, moves the cone
rows to the front and steps them in place (U -= lr * dL/dU); of the other rows
it keeps only the hardened bits.  The oracle checks every row after every
step, but a row that met the pins after the last step and kept its cone bits
is a fixed point whose key was already looked up, so it is not re-harvested.

The rows are independent, so the chunks run on worker processes: worker 0 is
the caller, and the others are forked after the draw.  Worker w steps chunks
w, w + workers, ... for the whole run, on its own copy-on-write rows with one
tape and adjoint buffer pair, and packs and deduplicates their keys; only the
lookup in the solution set and the insert are serial.  Chunks are harvested
in a fixed order, so results do not depend on chunking or worker count.

The gradient-descent path runs in float32: V, the sigmoid, the tape, the
adjoint, the loss and the step (`_FLOAT`).  Precision can change which rows
converge, never what is emitted: every row is hardened to bits and checked by
the exact Boolean oracle.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import numbers
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, CircuitError, ConeProgram, ConstraintSet
from .probsim import backward, forward

# A fixed split, so the worker count never changes results; a chunk is also
# the unit of work a worker process steps.  Smaller chunks do not lower the
# cost per row (fitting the cache buys nothing), and each chunk adds a fixed
# 0.1-0.8 ms; ROADMAP item 1 has the measurements.
_CHUNK_ROWS = 8192

# The precision of V, the tape, the adjoint and the step: the relaxed passes
# are bound by memory traffic, so half the bytes run faster.  The draw stays
# float64, so the stream and its prefix property are unchanged.
_FLOAT = np.float32

_MAX_INIT_RANGE = float(np.finfo(_FLOAT).max)  # a larger draw would turn V into +-inf

DEDUP_CONE = "cone"
DEDUP_ALL = "all"


@dataclass
class SamplerConfig:
    batch_size: int
    learning_rate: float = 15.0
    iterations: int = 10
    seed: int = 0
    init_range: float = 1.0
    dedup_scope: str = DEDUP_CONE
    threads: int = 1  # worker processes; 0 = one per CPU; affects speed only

    def __post_init__(self):
        for name in ("batch_size", "iterations", "seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "init_range"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 < self.init_range <= _MAX_INIT_RANGE:
            raise ValueError(f"init_range must be positive and finite, at most {_MAX_INIT_RANGE:g}")
        if self.threads < 0:
            raise ValueError("threads must be 0 (one per CPU) or positive")
        if self.dedup_scope not in (DEDUP_CONE, DEDUP_ALL):
            raise ValueError(f"dedup_scope must be '{DEDUP_CONE}' or '{DEDUP_ALL}'")


@dataclass
class IterationStats:
    iteration: int
    new_unique: int
    cumulative_unique: int
    elapsed_ms: float
    loss_mean: float
    satisfied_rows: int  # rows that met the pins after the step, repeats included


@dataclass
class SolutionSet:
    """Verified, deduplicated solutions plus per-iteration statistics.

    `solutions` maps the dedup key (packed bits) to the full input-bit vector
    in primary-input order, in discovery order.
    """

    input_names: list[str]  # names of the cone inputs, in primary-input order
    all_input_names: list[str]
    cone_cols: list[int]  # cone positions within the primary-input order
    dedup_scope: str
    solutions: dict[bytes, np.ndarray] = field(default_factory=dict)
    stats: list[IterationStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.solutions)

    def cone_rows(self) -> np.ndarray:
        """(num_solutions, |cone|) bit matrix restricted to cone inputs."""
        return self.full_rows()[:, self.cone_cols]

    def full_rows(self) -> np.ndarray:
        """(num_solutions, n) bit matrix over all primary inputs."""
        if not self.solutions:
            return np.zeros((0, len(self.all_input_names)), dtype=np.uint8)
        return np.array(list(self.solutions.values()), dtype=np.uint8)


def init_embeddings(config: SamplerConfig, num_inputs: int) -> np.ndarray:
    """V (b, num_inputs) ~ Uniform[-a, a] i.i.d. from one Philox stream keyed by the seed.

    V is drawn in float64 blocks of `_CHUNK_ROWS` rows; successive draws
    continue the stream, so the rows equal one draw of the full batch.  V is
    stored as float32, column-major, so `V.T` is input-major.
    """
    rng = np.random.Generator(np.random.Philox(key=config.seed & (2**64 - 1)))
    a, b, n = config.init_range, config.batch_size, num_inputs
    V = np.empty((n, b), _FLOAT).T
    for lo in range(0, b, _CHUNK_ROWS):
        V[lo : lo + _CHUNK_ROWS] = rng.uniform(-a, a, size=(min(_CHUNK_ROWS, b - lo), n))
    return V


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp of a non-positive number never overflows; equal bit for bit to
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below.  As e <= 1, the
    # numerator max(e, x >= 0) is 1 for x >= 0 and e below, without a branch.
    e = np.copysign(x, -1.0)  # -|x|
    np.exp(e, out=e)
    p = np.maximum(e, x >= 0, out=out)
    return np.divide(p, np.add(1.0, e, out=e), out=p)


def loss_and_grad(
    cone: ConeProgram, U: np.ndarray, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample l2 loss over the program's pins and dL/dU, for cone rows U.

    U is (cone inputs, b), input-major, and dL/dU comes back in that layout.
    Gradients are chained through the sigmoid, and everything runs at U's
    precision.  `buffers`, a (tape, adjoint) pair of (cone nets, >= b) arrays
    of U's dtype, are handed to `forward` and `backward` as their `out`, and
    the sigmoid writes into the tape's input rows; the returned arrays never
    alias them, and U is not written.
    """
    tape_buf, adj_buf = buffers or (None, None)
    # The program's inputs are nets 0..k-1, so P can sit in the tape's leading
    # rows; a buffer too small for them is left for `forward` to reject.
    rows = None if tape_buf is None else tape_buf[: U.shape[0], : U.shape[1]]
    P = _sigmoid(U, out=rows if rows is not None and rows.shape == U.shape else None)
    tape = forward(cone.circuit, P.T, out=tape_buf)
    diffs = {net: tape[net] - float(target) for net, target in cone.pins.items()}
    loss = sum(d * d for d in diffs.values())
    seeds = {net: 2.0 * d for net, d in diffs.items()}
    dU = backward(cone.circuit, tape, seeds, out=adj_buf).T  # an input-major copy, ours to scale
    dU *= P
    dU *= np.subtract(1.0, P, out=P)  # P is ours and read no more: no temporary
    return loss, dU


def harden(V: np.ndarray) -> np.ndarray:
    """Round soft values to bits: sigma(v) >= 0.5, i.e. v >= 0, maps to 1."""
    return (np.asarray(V) >= 0.0).view(np.uint8)


def _process_chunk(
    cone: ConeProgram, learning_rate: float, free_cols: list[int], key_cols: list[int] | slice,
    pair: tuple[np.ndarray, np.ndarray], U: np.ndarray, free_bits: np.ndarray, met: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """One GD step on a chunk's input-major cone rows U (in place).

    `pair` is the worker's (tape, adjoint) buffers, `free_bits` the chunk's
    input-major don't-care bits and `key_cols` the columns of a row that form
    its dedup key.  `met` holds, per row, whether it met the pins after the
    last step; it is updated in place.  Returns (full rows that met the pins
    and may hold a key not yet looked up, the ascending index of the first of
    these rows with each key, the key of each such row as a void scalar, loss
    sum, rows that met the pins), none of which aliases a buffer.
    """
    before = U >= 0.0  # the cone bits the last step hardened
    loss, grad = loss_and_grad(cone, U, pair)
    grad *= learning_rate
    U -= grad
    hard = harden(U.T)
    got = cone.circuit.eval_batch(hard, nets=list(cone.pins))
    ok = np.all(got == list(cone.pins.values()), axis=1)
    # A row that met the pins last step with the same cone bits was harvested
    # then, and its don't-care bits never change: its key is already known.
    new = ok & ~(met & np.all(hard.T == before, axis=0))
    met[:] = ok
    rows = np.empty((int(new.sum()), len(cone.input_cols) + len(free_cols)), dtype=np.uint8)
    rows[:, cone.input_cols] = hard[new]  # the cone bits as checked
    rows[:, free_cols] = free_bits[:, new].T  # the don't-care bits as drawn
    # Keys padded to full uint64 words; a stable sort over the words puts each
    # key's first row first among its repeats.
    packed = np.packbits(rows[:, key_cols], axis=1)
    width = packed.shape[1]
    words = np.zeros((len(packed), -(-width // 8) * 8), dtype=np.uint8)
    words[:, :width] = packed
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    words = words[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(words[1:] != words[:-1], axis=1)
    first = np.sort(order[starts])
    # Bytes copied out, so an empty chunk needs no strides.
    keys = np.frombuffer(packed[first].tobytes(), dtype=f"V{width}")
    return rows, first, keys, float(loss.sum(dtype=np.float64)), int(ok.sum())


def _serve(conn, parent_ends: list, step, shape: tuple[int, int], chunks: list[tuple]) -> None:
    """A forked worker: per "step", step `chunks` and send their results; stop on None or EOF.

    An exception is sent for the parent to raise, as a `RuntimeError` naming
    it if it does not survive pickling.
    """
    for end in parent_ends:  # so that a dead parent gives every worker EOF
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    try:
        pair = None
        while conn.recv():  # EOFError once no parent end is open
            # Allocated once a step is asked for, so that a failure answers it.
            pair = pair or (np.empty(shape, _FLOAT), np.empty(shape, _FLOAT))
            conn.send([step(pair, *chunk) for chunk in chunks])
    except EOFError:
        pass
    except Exception as exc:  # handed to the parent, which raises it
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # any pickling failure
            exc = RuntimeError(f"worker process failed: {exc!r}")
        try:
            conn.send(exc)
        except OSError:  # the parent has gone
            pass


def _receive(conn) -> list:
    """A worker's results for one step; raises what the worker raised."""
    try:
        got = conn.recv()
    except EOFError:
        raise RuntimeError("a worker process exited without sending its results") from None
    if isinstance(got, Exception):
        raise got
    return got


def _check_memory(config: SamplerConfig, cone: ConeProgram, n: int, workers: int) -> int:
    """Estimated peak bytes; refuse a batch whose estimate exceeds physical memory."""
    # Kept per row: V, the don't-care bits and whether the row met the pins.
    # Once: a float64 block of the draw.  Per worker: the tape and adjoint
    # buffers and a few cone-sized temporaries.  Per forked worker also the
    # copy-on-write copies of the cone rows and `met` of the chunks it steps.
    k, b = len(cone.input_cols), config.batch_size
    rows = min(b, _CHUNK_ROWS)
    size = np.dtype(_FLOAT).itemsize
    pair = 2 * size * cone.circuit.num_nets * rows
    chunks = -(-b // _CHUNK_ROWS)
    share = -(-chunks // workers) * rows * (size * k + 1)
    need = (b * (size * n + n - k + 1) + rows * 8 * n
            + workers * (pair + rows * size * 6 * k) + (workers - 1) * share)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryError(
            f"batch of {b} rows needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    return need


def run_sampling(
    circuit: Circuit, constraints: ConstraintSet, config: SamplerConfig
) -> SolutionSet:
    """Full sampling run: iterate GD, harvest/verify/dedup after every step."""
    diags = circuit.validate()
    if diags:
        raise CircuitError("invalid circuit: " + "; ".join(diags))
    if not constraints.pins:
        raise CircuitError("constraint set is empty")

    cone = circuit.compile(constraints)
    for net, bit in cone.pins.items():
        if cone.constants.get(net, bit) != bit:
            raise CircuitError(f"unsatisfiable: net {cone.circuit.name(net)} is constant {1 - bit}")
    if not cone.input_cols:
        raise CircuitError(
            "constraint cone contains no primary inputs: every pin is on a constant "
            "net that meets it, so every assignment meets the pins"
        )
    key_cols = cone.input_cols if config.dedup_scope == DEDUP_CONE else slice(None)

    result = SolutionSet(
        input_names=[circuit.name(circuit.primary_inputs[c]) for c in cone.input_cols],
        all_input_names=[circuit.name(n) for n in circuit.primary_inputs],
        cone_cols=cone.input_cols,
        dedup_scope=config.dedup_scope,
    )

    chunks = range(0, config.batch_size, _CHUNK_ROWS)
    cpus = len(os.sched_getaffinity(0))
    workers = min(config.threads or cpus, cpus, len(chunks))
    _check_memory(config, cone, circuit.num_inputs, workers)
    VT = init_embeddings(config, circuit.num_inputs).T  # input-major (n, b)
    free_cols = sorted(set(range(circuit.num_inputs)) - set(cone.input_cols))
    free_bits = (VT >= 0.0)[free_cols].view(np.uint8)
    # Move the cone rows to the front in place: the columns ascend, so no row
    # is overwritten before it is read.  Only these rows are trained.
    for i, c in enumerate(cone.input_cols):
        VT[i] = VT[c]
    U = VT[: len(cone.input_cols)]
    # Per row: met the pins after the last step.  Chunks own disjoint slices.
    met = np.zeros(config.batch_size, dtype=bool)
    # Worker w steps chunks w, w + workers, ... with its own (tape, adjoint)
    # pair, reused by every chunk of the run.
    slices = [slice(lo, lo + _CHUNK_ROWS) for lo in chunks]
    owned = [[(U[:, s], free_bits[:, s], met[s]) for s in slices[w::workers]] for w in range(workers)]
    step = functools.partial(_process_chunk, cone, config.learning_rate, free_cols, key_cols)
    shape = (cone.circuit.num_nets, min(config.batch_size, _CHUNK_ROWS))  # cone nets x chunk rows
    # Forked, not spawned: a child inherits V and the compiled cone, where a
    # spawned one would import NumPy and circsat afresh on every run.
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for w in range(1, workers):
            conn, child_end = ctx.Pipe()
            conns.append(conn)
            procs.append(ctx.Process(target=_serve, args=(child_end, conns, step, shape, owned[w]),
                                     daemon=True))
            procs[-1].start()
            child_end.close()
        pair = (np.empty(shape, _FLOAT), np.empty(shape, _FLOAT))
        for it in range(1, config.iterations + 1):
            t0 = time.perf_counter()
            for conn in conns:
                conn.send("step")
            done = {j * workers: step(pair, *chunk) for j, chunk in enumerate(owned[0])}
            new_unique, loss_sum, satisfied = 0, 0.0, 0
            for i in range(len(chunks)):  # chunk order fixed => deterministic
                if i not in done:  # the results of all chunks of worker i % workers
                    w = i % workers
                    done.update(zip(range(w, len(chunks), workers), _receive(conns[w - 1])))
                rows, first, keys, chunk_loss, chunk_ok = done.pop(i)
                loss_sum += chunk_loss
                satisfied += chunk_ok
                keys = keys.tolist()
                fresh = [j for j, key in enumerate(keys) if key not in result.solutions]
                # The hardened rows the oracle checked, don't-cares included,
                # taken at once; each solution is a row view of this block.
                result.solutions.update(zip([keys[j] for j in fresh], rows[first[fresh]]))
                new_unique += len(fresh)
            result.stats.append(IterationStats(
                iteration=it, new_unique=new_unique, cumulative_unique=len(result.solutions),
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                loss_mean=loss_sum / config.batch_size, satisfied_rows=satisfied,
            ))
    finally:
        for conn in conns:
            with contextlib.suppress(OSError):  # a worker that raised has gone
                conn.send(None)
            conn.close()
        for proc in procs:
            proc.join()
    return result
