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
program's batched `eval_batch`.  V is one stream seeded by `seed`, row after
row, and `init_embeddings` can draw any range of its rows, so a batch is a
prefix of any larger batch and a chunk of rows can be drawn on its own.

A `Chunk` is what the sampler keeps of a chunk's draw: the cone rows U, the
hardened don't-care bits and, per row, whether it met the pins after the last
step.  `_process_chunk` steps a chunk in place (U -= lr * dL/dU), checks every
row with the oracle and returns a `Step`: the rows to harvest, the index of
the first with each key, their sorted keys, and counters that `run_sampling`
sums over the chunks into the iteration's `IterationStats`.  A row that met
the pins after the last step and kept its cone bits is a fixed point whose key
was already looked up, so it is not harvested again.

The rows are independent, so the chunks run on worker processes: worker 0 is
the caller, and the others are forked before anything is drawn.  Worker w
draws chunks w, w + workers, ... itself and owns them for the whole run, with
one `Workspace` of buffers; it steps them every iteration, and a forked worker
sends each iteration's `Step`s without waiting to be asked.  With more than
one worker, each runs on its own share of the CPU set, so that the scheduler
cannot put two on one CPU while another idles.  Only the lookup in the
solution set and the insert are serial, and the steps are harvested in chunk
order, so results do not depend on chunking or worker count.  The solution
set keeps its keys in a sorted array and its rows in one block, in discovery
order.

The gradient-descent path runs in float32: V, the sigmoid, the tape, the
adjoint, the loss and the step (`_FLOAT`).  Precision can change which rows
converge, never what is emitted: every row is hardened to bits and checked by
the exact Boolean oracle.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, CircuitError, ConeProgram, ConstraintSet
from . import probsim
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

# Values per float64 block of the draw.  A small block is reused from the
# heap, where one of `_CHUNK_ROWS` rows touched fresh pages on every chunk,
# and its transposed copy into V stays in the cache.
_DRAW_VALUES = 2**15

_MAX_FLOAT = float(np.finfo(_FLOAT).max)  # a larger draw or rate would overflow V or the step

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
        if not 0 < self.learning_rate <= _MAX_FLOAT:
            raise ValueError(f"learning_rate must be positive and finite, at most {_MAX_FLOAT:g}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 < self.init_range <= _MAX_FLOAT:
            raise ValueError(f"init_range must be positive and finite, at most {_MAX_FLOAT:g}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
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
    wait_ms: float = 0.0  # the caller's time blocked on the other workers' results


@dataclass
class SolutionSet:
    """Verified, deduplicated solutions plus per-iteration statistics.

    The solutions are full input-bit rows in primary-input order, kept in
    discovery order in one block and nowhere else; their dedup keys, the key
    columns' bits packed into uint64 words (`_pack_keys`), are kept in a
    sorted array for lookup.
    """

    all_input_names: list[str]
    cone_cols: list[int]  # cone positions within the primary-input order
    dedup_scope: str
    workers: int = 1  # processes that stepped the chunks, the caller included
    stats: list[IterationStats] = field(default_factory=list)
    _keys: np.ndarray | None = field(default=None, init=False, repr=False)  # sorted
    _blocks: list[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def __len__(self) -> int:
        return sum(len(block) for block in self._blocks)

    @property
    def input_names(self) -> list[str]:
        """Names of the cone inputs, in primary-input order."""
        return [self.all_input_names[c] for c in self.cone_cols]

    def cone_rows(self) -> np.ndarray:
        """(num_solutions, |cone|) bit matrix restricted to cone inputs."""
        return self.full_rows()[:, self.cone_cols]

    def full_rows(self) -> np.ndarray:
        """(num_solutions, n) bit matrix over all primary inputs, read-only."""
        if len(self._blocks) != 1:
            n = len(self.all_input_names)
            block = np.concatenate(self._blocks) if self._blocks else np.zeros((0, n), np.uint8)
            block.flags.writeable = False
            self._blocks = [block]
        return self._blocks[0]

    def _add(self, step: Step) -> int:
        """Store the step's rows whose key is not yet known, in row order; return how many."""
        keys = step.keys
        known = keys[:0] if self._keys is None else self._keys
        pos = np.searchsorted(known, keys)
        fresh = pos == len(known)
        fresh[~fresh] = known[pos[~fresh]] != keys[~fresh]
        if fresh.any():
            # The positions, found in the old array, ascend with the keys.
            self._keys = np.insert(known, pos[fresh], keys[fresh])
            self._blocks.append(step.rows[np.sort(step.first[fresh])])
        return int(fresh.sum())


def _pack_keys(bits: np.ndarray) -> np.ndarray:
    """One key per column of an input-major 0/1 matrix: its bits packed and zero-padded to uint64 words.

    A key of one word is a uint64; a wider one is a void scalar of its words,
    which NumPy sorts and compares byte by byte.
    """
    words = -(-len(bits) // 64)
    # Row-major, so each key's bits are contiguous and pack with the rest in one flat pass.
    block = np.zeros((bits.shape[1], 64 * words), dtype=np.uint8)
    block[:, : len(bits)] = bits.T
    return np.packbits(block).view(np.uint64 if words == 1 else f"V{8 * words}")


def init_embeddings(
    config: SamplerConfig, num_inputs: int, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Rows lo..hi (default: all) of V (b, num_inputs) ~ Uniform[-a, a] i.i.d.

    V is one Philox stream keyed by the seed, read row after row, so any
    range of rows equals those rows of one draw of the full batch: a counter
    step of the stream makes four values, so it is advanced lo * n // 4 steps
    and the remaining lo * n % 4 values are drawn and dropped.  The rows are
    drawn in float64 blocks of about `_DRAW_VALUES` values and stored as
    float32, column-major, so `V.T` is input-major.
    """
    a, n = config.init_range, num_inputs
    hi = config.batch_size if hi is None else min(hi, config.batch_size)
    stream = np.random.Philox(key=config.seed)
    stream.advance(lo * n // 4)
    rng = np.random.Generator(stream)
    rng.random(lo * n % 4)
    V = np.empty((n, hi - lo), _FLOAT).T
    block = max(1, _DRAW_VALUES // n)
    for r in range(0, hi - lo, block):
        V[r : r + block] = rng.uniform(-a, a, size=(min(block, hi - lo - r), n))
    return V


def _sigmoid(x: np.ndarray, out: np.ndarray, e: np.ndarray) -> np.ndarray:
    # Into `out`, with `e` as scratch; exp of a non-positive number never overflows.  Equal bit
    # for bit to 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below.  As e <= 1, the
    # numerator max(e, x >= 0) is 1 for x >= 0 and e below, without a branch.
    e = np.abs(x, out=e)
    np.negative(e, out=e)  # -|x|
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=out)
    np.maximum(e, out, out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


class Workspace(probsim.Workspace):
    """A worker's buffers for `loss_and_grad`: probsim's for the cone program, and two rows."""

    def __init__(self, cone: ConeProgram, rows: int, dtype=_FLOAT):
        super().__init__(cone.circuit, rows, dtype)
        self.loss, self.square = np.empty((2, rows), dtype)


def loss_and_grad(
    cone: ConeProgram, U: np.ndarray, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample l2 loss over the program's pins and dL/dU, for cone rows U.

    U is (cone inputs, b), input-major, and dL/dU, a new array, comes back in
    that layout, chained through the sigmoid at the precision of `workspace`
    (else of one of U's dtype made for the call), on which both passes run.
    P is written into the tape's input rows, and each pin's difference d into
    its adjoint row and scaled there to the seed 2d.  The loss is the
    workspace's row, valid until its next call.  U is not written.
    """
    k, b = len(cone.input_cols), U.shape[-1]
    ws = Workspace(cone, b, U.dtype) if workspace is None else workspace
    P, E, loss, square = ws.tape[:k, :b], ws.adj[:k, :b], ws.loss[:b], ws.square[:b]
    if U.shape != P.shape:
        raise CircuitError(f"tape buffer of shape {ws.tape.shape} cannot hold cone rows {U.shape}")
    _sigmoid(U, P, E)
    tape = forward(cone.circuit, P.T, workspace=ws)
    seeds = {}
    loss.fill(0.0)
    for net, target in cone.pins.items():
        d = seeds[net] = ws.adj[net, :b]
        np.subtract(tape[net], float(target), out=d)
        loss += np.multiply(d, d, out=square)
        np.multiply(2.0, d, out=d)
    dU = backward(cone.circuit, tape, seeds, workspace=ws).T  # an input-major copy, ours to scale
    dU *= P
    dU *= np.subtract(1.0, P, out=P)  # P is read no more: no temporary
    return loss, dU


def harden(V: np.ndarray) -> np.ndarray:
    """Round soft values to bits: sigma(v) >= 0.5, i.e. v >= 0, maps to 1."""
    return (np.asarray(V) >= 0.0).view(np.uint8)


class Chunk(NamedTuple):
    """A worker's state for one chunk of rows, kept for the whole run."""

    U: np.ndarray  # the input-major cone rows, which each step updates in place
    free_bits: np.ndarray  # the input-major don't-care bits, hardened from the draw
    met: np.ndarray  # per row, whether it met the pins after the last step


class Step(NamedTuple):
    """What a chunk's step hands the harvest, none of it aliasing the workspace."""

    rows: np.ndarray  # full rows that met the pins and may hold a key not yet looked up
    first: np.ndarray  # rows[first[i]] is the first row with keys[i]
    keys: np.ndarray  # the rows' distinct `_pack_keys` keys, in ascending order
    loss_sum: float = 0.0
    satisfied_rows: int = 0  # rows that met the pins, repeats included


def _process_chunk(cone: ConeProgram, learning_rate: float, free_cols: list[int],
                   key_cols: list[int] | slice, workspace: Workspace, chunk: Chunk) -> Step:
    """One GD step on `chunk`, in place; a row's dedup key is its `key_cols` columns."""
    U, met = chunk.U, chunk.met
    before = U >= 0.0  # the cone bits the last step hardened
    loss, grad = loss_and_grad(cone, U, workspace)
    grad *= learning_rate
    U -= grad
    hard = harden(U.T)
    got = cone.circuit.eval_batch(hard, nets=list(cone.pins))
    # The oracle's rows, one per pin, each against its pin's bit.
    want = np.array(list(cone.pins.values()), dtype=np.uint8)[:, None]
    ok = np.all(got.T == want, axis=0)
    # A row that met the pins last step with the same cone bits was harvested
    # then, and its don't-care bits never change: its key is already known.
    new = ok & ~(met & np.all(hard.T == before, axis=0))
    met[:] = ok
    # Built input-major, where each input's bits are one contiguous row.
    idx = np.flatnonzero(new)
    bits = np.empty((len(cone.input_cols) + len(free_cols), len(idx)), dtype=np.uint8)
    bits[cone.input_cols] = hard.T.take(idx, axis=1)  # the cone bits as checked
    bits[free_cols] = chunk.free_bits.take(idx, axis=1)  # the don't-care bits as drawn
    # Each key's first row is the least row index among its repeats; sorted
    # here, the keys are looked up in the solution set as they come.
    keys = _pack_keys(bits[key_cols])
    order = np.argsort(keys)
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = keys[order[1:]] != keys[order[:-1]]
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    return Step(bits.T, first, keys[first], float(loss.sum(dtype=np.float64)), int(ok.sum()))


def _own_chunks(config: SamplerConfig, cone: ConeProgram, free_cols: list[int],
                starts: range) -> list[Chunk]:
    """Draw a worker's chunks, those that begin at rows `starts`."""
    n, k = len(cone.input_cols) + len(free_cols), len(cone.input_cols)
    chunks = []
    for lo in starts:
        VT = init_embeddings(config, n, lo, lo + _CHUNK_ROWS).T  # input-major
        free_bits = (VT[free_cols] >= 0.0).view(np.uint8)
        # Move the cone rows to the front in place: the columns ascend, so no
        # row is overwritten before it is read.  Only these rows are trained.
        for i, c in enumerate(cone.input_cols):
            VT[i] = VT[c]
        chunks.append(Chunk(VT[:k], free_bits, np.zeros(VT.shape[1], dtype=bool)))
    return chunks


def _pin(cpus: set[int]) -> None:
    """Run the calling thread on `cpus`, or where it runs now if the system refuses."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU the system will not give, say; results never depend on placement
        pass


def _serve(conn, parent_ends: list, cpus: set[int], run) -> None:
    """A forked worker on `cpus`: send each item of `run`, one iteration's results each.

    An exception is sent for the parent to raise, as a `RuntimeError` naming
    it if it does not survive pickling.
    """
    for end in parent_ends:  # so that the only open ends are the caller's
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    _pin(cpus)
    try:
        for results in run:
            conn.send(results)
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
    """A worker's results for one iteration; raises what the worker raised."""
    try:
        got = conn.recv()
    except EOFError:
        raise RuntimeError("a worker process exited without sending its results") from None
    if isinstance(got, Exception):
        raise got
    return got


def _check_memory(config: SamplerConfig, cone: ConeProgram, n: int, workers: int) -> int:
    """Estimated peak bytes; refuse a batch whose estimate exceeds physical memory."""
    # Kept per row, by the worker that owns it: V, the don't-care bits and whether the row met
    # the pins.  Per worker: a float64 block of the draw and, in chunk rows, the workspace
    # (tape, adjoint, scratch block, two rows), the gradient and the step's bits.
    k, b = len(cone.input_cols), config.batch_size
    rows, size = min(b, _CHUNK_ROWS), np.dtype(_FLOAT).itemsize
    floats = 2 * cone.circuit.num_nets + cone.circuit.lowered().width + 1 + 2 + k
    draw = 8 * max(n, _DRAW_VALUES)
    need = b * (size * n + n - k + 1) + workers * (draw + rows * (size * floats + 3 * k))
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

    starts = range(0, config.batch_size, _CHUNK_ROWS)
    cpus = sorted(os.sched_getaffinity(0))
    workers = min(config.threads or len(cpus), len(cpus), len(starts))
    _check_memory(config, cone, circuit.num_inputs, workers)
    result = SolutionSet(
        all_input_names=[circuit.name(n) for n in circuit.primary_inputs],
        cone_cols=cone.input_cols,
        dedup_scope=config.dedup_scope,
        workers=workers,
    )
    free_cols = sorted(set(range(circuit.num_inputs)) - set(cone.input_cols))

    def worker_run(w: int):
        """Worker w draws chunks w, w + workers, ... and steps them with its
        own workspace; yields each iteration's per-chunk results."""
        chunks = _own_chunks(config, cone, free_cols, starts[w::workers])
        workspace = Workspace(cone, min(config.batch_size, _CHUNK_ROWS))
        for _ in range(config.iterations):
            yield [_process_chunk(cone, config.learning_rate, free_cols, key_cols, workspace, chunk)
                   for chunk in chunks]

    # Forked, not spawned: a child inherits the compiled cone, where a spawned
    # one would import NumPy and circsat afresh on every run.  The children
    # are forked first, so each draws its own rows and none is shared.
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    finished = False
    try:
        for w in range(1, workers):
            conn, child_end = ctx.Pipe(duplex=False)
            conns.append(conn)
            procs.append(ctx.Process(target=_serve, daemon=True,
                                     args=(child_end, conns, set(cpus[w::workers]), worker_run(w))))
            procs[-1].start()
            child_end.close()
        if workers > 1:  # disjoint shares, as workers <= len(cpus)
            _pin(set(cpus[::workers]))
        own = worker_run(0)
        results = [None] * len(starts)
        for it in range(1, config.iterations + 1):
            t0 = time.perf_counter()
            results[0::workers] = next(own)
            t1 = time.perf_counter()
            for w, conn in enumerate(conns, 1):
                results[w::workers] = _receive(conn)
            wait_ms = (time.perf_counter() - t1) * 1000.0 if conns else 0.0
            # Harvested and summed in chunk order, so the results are deterministic.
            new_unique = sum(result._add(step) for step in results)
            result.stats.append(IterationStats(
                iteration=it, new_unique=new_unique, cumulative_unique=len(result),
                elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                loss_mean=sum(step.loss_sum for step in results) / config.batch_size,
                satisfied_rows=sum(step.satisfied_rows for step in results), wait_ms=wait_ms,
            ))
        finished = True
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            # A child blocked sending results the caller will not read, for
            # instance after another worker failed, would never exit: closing
            # our end is not enough while a concurrent run's child holds it.
            if not finished:
                proc.terminate()
            proc.join()
        if workers > 1:
            _pin(set(cpus))
    return result
