"""Gradient-descent sampling loop.

A batch of learnable pre-activations V (one row per sample) is pushed through
a sigmoid into input probabilities, the relaxed circuit and an l2 loss against
the pinned targets.  After every plain-GD step the soft values are hardened to
bits, verified against the exact Boolean simulator and folded into a
deduplicated solution set, with per-iteration discovery statistics.

Only inputs in the support cone of the constraints are trained; the rest are
don't-cares that keep their initial draws.  V is drawn row by row from one
stream seeded by `seed`, so a batch is a prefix of any larger batch.  Chunks
are harvested in a fixed order, so results do not depend on chunking or
worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, CircuitError, ConstraintSet
from .probsim import backward, forward

_CHUNK_ROWS = 8192  # fixed split so thread count never changes results

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
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.init_range <= 0:
            raise ValueError("init_range must be positive")
        if self.threads < 0:
            raise ValueError("threads must be 0 (one per CPU) or positive")
        if self.dedup_scope not in (DEDUP_CONE, DEDUP_ALL):
            raise ValueError(f"dedup_scope must be '{DEDUP_CONE}' or '{DEDUP_ALL}'")


@dataclass
class EmbeddingMatrix:
    V: np.ndarray  # (b, n) float64 pre-activations
    cone_mask: np.ndarray  # (n,) bool, True = trainable


@dataclass
class IterationStats:
    iteration: int
    new_unique: int
    cumulative_unique: int
    elapsed_ms: float
    loss_mean: float


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
        if not self.solutions:
            return np.zeros((0, len(self.cone_cols)), dtype=np.uint8)
        full = np.stack(list(self.solutions.values()))
        return full[:, self.cone_cols]

    def full_rows(self) -> np.ndarray:
        """(num_solutions, n) bit matrix over all primary inputs."""
        if not self.solutions:
            return np.zeros((0, len(self.all_input_names)), dtype=np.uint8)
        return np.stack(list(self.solutions.values()))

    def cone_keys(self) -> set[tuple[int, ...]]:
        return {tuple(int(b) for b in row) for row in self.cone_rows()}


def init_embeddings(
    config: SamplerConfig, circuit: Circuit, constraints: ConstraintSet
) -> EmbeddingMatrix:
    """V ~ Uniform[-a, a] i.i.d., drawn row by row from one Philox stream keyed by the seed."""
    cone = circuit.support_cone(constraints)
    if not cone:
        raise CircuitError("constraint cone contains no primary inputs")
    mask = np.array([net in cone for net in circuit.primary_inputs])
    rng = np.random.Generator(np.random.Philox(key=config.seed & (2**64 - 1)))
    a = config.init_range
    V = rng.uniform(-a, a, size=(config.batch_size, circuit.num_inputs))
    return EmbeddingMatrix(V=V, cone_mask=mask)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows; equal bit for bit to
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def loss_and_grad(
    circuit: Circuit, emb: EmbeddingMatrix, constraints: ConstraintSet
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample l2 loss over the pinned nets and dL/dV.

    Gradients are chained through the sigmoid; columns outside the cone mask
    are exactly zero.
    """
    P = _sigmoid(emb.V)
    tape = forward(circuit, P)
    b = P.shape[0]
    loss = np.zeros(b)
    seeds: dict[int, np.ndarray] = {}
    for net, target in constraints.pins.items():
        diff = tape.net(net) - float(target)
        loss += diff * diff
        seeds[net] = 2.0 * diff
    dP = backward(circuit, tape, seeds)
    dV = dP * P * (1.0 - P)
    dV[:, ~emb.cone_mask] = 0.0
    return loss, dV


def gd_step(emb: EmbeddingMatrix, grad: np.ndarray, learning_rate: float) -> EmbeddingMatrix:
    """Plain gradient descent on the cone columns; others frozen."""
    V = emb.V.copy()
    V[:, emb.cone_mask] -= learning_rate * grad[:, emb.cone_mask]
    return EmbeddingMatrix(V=V, cone_mask=emb.cone_mask)


def harden(V: np.ndarray) -> np.ndarray:
    """Round soft values to bits: sigma(v) >= 0.5, i.e. v >= 0, maps to 1."""
    return (np.asarray(V) >= 0.0).astype(np.uint8)


def _process_chunk(
    circuit: Circuit,
    constraints: ConstraintSet,
    config: SamplerConfig,
    V: np.ndarray,
    mask: np.ndarray,
    pin_nets: list[int],
    pin_bits: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One GD step on a V chunk (updated in place); returns (satisfied hard rows, loss sum)."""
    emb = EmbeddingMatrix(V=V, cone_mask=mask)
    loss, grad = loss_and_grad(circuit, emb, constraints)
    V[:] = gd_step(emb, grad, config.learning_rate).V
    hard = harden(V)
    got = circuit.eval_batch(hard, nets=pin_nets)
    ok = np.all(got == pin_bits, axis=1)
    return hard[ok], float(loss.sum())


def run_sampling(
    circuit: Circuit, constraints: ConstraintSet, config: SamplerConfig
) -> SolutionSet:
    """Full sampling run: iterate GD, harvest/verify/dedup after every step."""
    diags = circuit.validate()
    if diags:
        raise CircuitError("invalid circuit: " + "; ".join(diags))
    if not constraints.pins:
        raise CircuitError("constraint set is empty")

    emb = init_embeddings(config, circuit, constraints)
    mask = emb.cone_mask
    cone_cols = [i for i, m in enumerate(mask) if m]
    key_cols = cone_cols if config.dedup_scope == DEDUP_CONE else slice(None)
    pin_nets = list(constraints.pins)
    pin_bits = np.array([constraints.pins[n] for n in pin_nets], dtype=np.uint8)

    result = SolutionSet(
        input_names=[circuit.name(circuit.primary_inputs[c]) for c in cone_cols],
        all_input_names=[circuit.name(n) for n in circuit.primary_inputs],
        cone_cols=cone_cols,
        dedup_scope=config.dedup_scope,
    )

    chunks = [
        (lo, min(lo + _CHUNK_ROWS, config.batch_size))
        for lo in range(0, config.batch_size, _CHUNK_ROWS)
    ]
    workers = config.threads if config.threads > 0 else None  # None = cpu default
    pool = ThreadPoolExecutor(max_workers=workers) if config.threads != 1 else None
    try:
        for it in range(1, config.iterations + 1):
            t0 = time.perf_counter()

            def work(span):
                lo, hi = span
                return _process_chunk(
                    circuit, constraints, config, emb.V[lo:hi], mask, pin_nets, pin_bits
                )

            # Lazy: a chunk's rows are harvested, then dropped, as soon as it is done.
            results = pool.map(work, chunks) if pool else map(work, chunks)

            new_unique = 0
            loss_sum = 0.0
            for hard_ok, chunk_loss in results:  # chunk order fixed => deterministic
                loss_sum += chunk_loss
                # One key per row, compared as a single void scalar; bytes
                # copied out so an empty chunk needs no strides.
                packed = np.packbits(hard_ok[:, key_cols], axis=1)
                keys = np.frombuffer(packed.tobytes(), dtype=f"V{packed.shape[1]}")
                first = np.sort(np.unique(keys, return_index=True)[1])
                for i, key in zip(first.tolist(), keys[first].tolist()):
                    if key not in result.solutions:
                        # The hardened row the oracle checked, don't-cares included.
                        result.solutions[key] = hard_ok[i].copy()
                        new_unique += 1
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            result.stats.append(
                IterationStats(
                    iteration=it,
                    new_unique=new_unique,
                    cumulative_unique=len(result.solutions),
                    elapsed_ms=elapsed_ms,
                    loss_mean=loss_sum / config.batch_size,
                )
            )
    finally:
        if pool:
            pool.shutdown()
    return result
