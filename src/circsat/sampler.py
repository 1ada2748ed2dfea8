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
it keeps only the hardened bits.  Each worker reuses one tape and one adjoint
buffer for every chunk of the run, and the sigmoid writes straight into the
tape's input rows.  The oracle checks every row after every step, but a row
that met the pins after the last step and kept its cone bits is a fixed point
whose key was already looked up, so it is not re-harvested.  A chunk's new
solutions are row views of one block taken from it.  Chunks are harvested in a
fixed order, so results do not depend on chunking or worker count.

The gradient-descent path runs in float32: V, the sigmoid, the tape, the
adjoint, the loss and the step (`_FLOAT`).  Precision can change which rows
converge, never what is emitted: every row is hardened to bits and checked by
the exact Boolean oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, CircuitError, ConeProgram, ConstraintSet
from .probsim import backward, forward

# A fixed split, so thread count never changes results.  Smaller chunks do
# not lower the cost per row (fitting the cache buys nothing), and each chunk
# adds a fixed 0.1-0.8 ms; ROADMAP item 1 has the measurements.
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
    threads: int = 1  # 0 = one per CPU; affects speed only

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
    cone: ConeProgram,
    learning_rate: float,
    free_cols: list[int],
    buffers: queue.SimpleQueue,
    U: np.ndarray,
    free_bits: np.ndarray,
    met: np.ndarray,
) -> tuple[np.ndarray, float, int]:
    """One GD step on a chunk's input-major cone rows U (in place).

    `buffers` holds the run's (tape, adjoint) pairs and `free_bits` the
    chunk's input-major don't-care bits.  `met` holds,
    per row, whether it met the pins after the last step; it is updated in
    place.  Returns (full rows that met the pins and may hold a key not yet
    looked up, loss sum, rows that met the pins), none of which aliases a
    buffer.
    """
    before = U >= 0.0  # the cone bits the last step hardened
    pair = buffers.get()
    try:
        loss, grad = loss_and_grad(cone, U, pair)
        grad *= learning_rate
        U -= grad
    finally:
        buffers.put(pair)
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
    return rows, float(loss.sum(dtype=np.float64)), int(ok.sum())


def _buffer_shape(cone: ConeProgram, batch_size: int) -> tuple[int, int]:
    """Shape of each worker's tape and adjoint buffer: cone nets x chunk rows."""
    return cone.circuit.num_nets, min(batch_size, _CHUNK_ROWS)


def _check_memory(config: SamplerConfig, cone: ConeProgram, n: int, workers: int) -> int:
    """Estimated peak bytes; refuse a batch whose estimate exceeds physical memory."""
    # Kept per row: V, the don't-care bits and whether the row met the pins.
    # Once: a float64 block of the draw.  Per worker: the tape and adjoint
    # buffers and a few cone-sized temporaries.
    k, b = len(cone.input_cols), config.batch_size
    rows = min(b, _CHUNK_ROWS)
    size = np.dtype(_FLOAT).itemsize
    pair = 2 * size * math.prod(_buffer_shape(cone, b))
    need = b * (size * n + n - k + 1) + rows * 8 * n + workers * (pair + rows * size * 6 * k)
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
    workers = min(config.threads or os.cpu_count() or 1, len(chunks))
    _check_memory(config, cone, circuit.num_inputs, workers)
    VT = init_embeddings(config, circuit.num_inputs).T  # input-major (n, b)
    free_cols = sorted(set(range(circuit.num_inputs)) - set(cone.input_cols))
    free_bits = (VT >= 0.0)[free_cols].view(np.uint8)
    # Move the cone rows to the front in place: the columns ascend, so no row
    # is overwritten before it is read.  Only these rows are trained.
    for i, c in enumerate(cone.input_cols):
        VT[i] = VT[c]
    U = VT[: len(cone.input_cols)]
    # One (tape, adjoint) pair per worker, reused by every chunk of the run.
    shape = _buffer_shape(cone, config.batch_size)
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty(shape, _FLOAT), np.empty(shape, _FLOAT)))
    step = functools.partial(_process_chunk, cone, config.learning_rate, free_cols, buffers)
    Us = [U[:, lo : lo + _CHUNK_ROWS] for lo in chunks]
    frees = [free_bits[:, lo : lo + _CHUNK_ROWS] for lo in chunks]
    # Per row: met the pins after the last step.  Chunks own disjoint slices.
    met = np.zeros(config.batch_size, dtype=bool)
    mets = [met[lo : lo + _CHUNK_ROWS] for lo in chunks]
    # One thread runs the chunks inline: a one-worker pool gave the same
    # outputs but was slower (c17-census median 0.105-0.144 s inline against
    # 0.131-0.240 s, adder16-sum 0.507-0.545 s against 0.501-0.628 s).
    pool = ThreadPoolExecutor(max_workers=workers) if config.threads != 1 else None
    try:
        for it in range(1, config.iterations + 1):
            t0 = time.perf_counter()
            # Lazy: a chunk's rows are harvested, then dropped, as soon as it is done.
            results = pool.map(step, Us, frees, mets) if pool else map(step, Us, frees, mets)

            new_unique = 0
            loss_sum = 0.0
            satisfied = 0
            for hard_ok, chunk_loss, chunk_ok in results:  # chunk order fixed => deterministic
                loss_sum += chunk_loss
                satisfied += chunk_ok
                # Keys padded to full uint64 words; a stable sort over the
                # words puts each key's first row first among its repeats.
                packed = np.packbits(hard_ok[:, key_cols], axis=1)
                width = packed.shape[1]
                words = np.zeros((len(packed), -(-width // 8) * 8), dtype=np.uint8)
                words[:, :width] = packed
                words = words.view(np.uint64)
                order = np.lexsort(words.T)
                words = words[order]
                starts = np.ones(len(order), dtype=bool)
                starts[1:] = np.any(words[1:] != words[:-1], axis=1)
                first = np.sort(order[starts])
                # One void scalar per key; bytes copied out so an empty chunk needs no strides.
                keys = np.frombuffer(packed.tobytes(), dtype=f"V{width}")
                fresh = [(i, key) for i, key in zip(first.tolist(), keys[first].tolist())
                         if key not in result.solutions]
                # The hardened rows the oracle checked, don't-cares included,
                # taken at once; each solution is a row view of this block.
                block = hard_ok[[i for i, _ in fresh]]
                result.solutions.update(zip((key for _, key in fresh), block))
                new_unique += len(fresh)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            result.stats.append(
                IterationStats(
                    iteration=it,
                    new_unique=new_unique,
                    cumulative_unique=len(result.solutions),
                    elapsed_ms=elapsed_ms,
                    loss_mean=loss_sum / config.batch_size,
                    satisfied_rows=satisfied,
                )
            )
    finally:
        if pool:
            pool.shutdown()
    return result
