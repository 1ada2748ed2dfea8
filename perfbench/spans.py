"""Spans and counts recorded from outside circsat, and the per-layer metrics.

`Tracer.install` replaces public functions of circsat's modules with wrappers
that record a span per call; `Tracer.uninstall` puts the originals back, so
untraced runs execute circsat unchanged.  A span is
(name, start, end, parent, thread, invocation); a span opened on a worker
thread with no open span of its own takes the innermost open span of the
thread that started the invocation as its parent.  A span's self time is its
duration minus that of its children on the same thread.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from statistics import median

# Wrapped callable -> the layer metric that its self time feeds.
SELF_TIME_METRIC = {
    "parse_file": "parsers.parse_ms",
    "parse_constraints": "parsers.parse_ms",
    "validate": "circuit.validate_ms",
    "topo_order": "circuit.topo_ms",
    "eval_batch": "circuit.eval_ms",
    "forward": "probsim.forward_ms",
    "backward": "probsim.backward_ms",
    "init_embeddings": "sampler.init_ms",
    "loss_and_grad": "sampler.grad_ms",
    "harden": "sampler.harden_ms",
    "run_sampling": "sampler.dedup_ms",
    "tseytin_encode": "cnf.encode_ms",
    "cli.main": "cli.emit_ms",
}
# Calls made once per chunk of rows inside an iteration of run_sampling.
CHUNK_WORK = ("loss_and_grad", "harden", "eval_batch")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, invocation]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.invocation = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), self.invocation]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float):
        with self._lock:
            self.counts[self.invocation][name] += value

    def install(self, owner, attr: str, name: str, counter=None):
        """Replace owner.attr with a recording wrapper; `counter(args, kwargs, result)`."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- derived metrics ------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            parent = s[3]
            if parent is not None and self.spans[parent][4] == s[4]:
                own[parent] -= s[2] - s[1]
        return own

    def layer_metrics(self, walls: dict[int, float], threads: int) -> dict[str, float]:
        """Per-invocation medians of self times (ms), counts and pool figures.

        `walls` maps each traced invocation to its wall time measured around
        the call, against which the main thread's self times are accounted.
        """
        own = self.self_times()
        per_inv: dict[int, dict[str, float]] = {i: defaultdict(float) for i in walls}
        for idx, s in enumerate(self.spans):
            if s[5] in per_inv:
                per_inv[s[5]][SELF_TIME_METRIC[s[0]]] += own[idx] * 1e3
        for inv, row in per_inv.items():
            wait, chunk_work, loop_wall, accounted = self._pool_figures(inv, own)
            row["sampler.dedup_ms"] -= wait * 1e3
            row["sampler.pool_wait_ms"] = wait * 1e3
            row["sampler.pool_util"] = chunk_work / (loop_wall * threads) if loop_wall else 0.0
            row["trace.accounted_frac"] = accounted / walls[inv]
            row.update(self.counts[inv])
        keys = sorted({k for row in per_inv.values() for k in row})
        return {k: median(row.get(k, 0.0) for row in per_inv.values()) for k in keys}

    def _pool_figures(self, inv: int, own: list[float]) -> tuple[float, float, float, float]:
        """(pool wait, chunk work, iteration-loop wall, main-thread self-time sum), in s."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == inv]
        main = [(i, s) for i, s in spans if s[4] == self._main_thread]
        worker = sorted((s[1], s[2]) for _, s in spans if s[4] != self._main_thread)
        wait = chunk_work = loop_wall = 0.0
        for i, s in main:
            if s[0] != "run_sampling":
                continue
            children = [c for _, c in spans if c[3] == i]
            chunk_work += sum(c[2] - c[1] for c in children if c[0] in CHUNK_WORK)
            loop_wall += (s[2] - s[1]) - sum(
                c[2] - c[1] for c in children if c[0] not in CHUNK_WORK and c[4] == s[4]
            )
            gaps = _gaps(s[1], s[2], sorted((c[1], c[2]) for c in children if c[4] == s[4]))
            wait += sum(_overlap(gap, worker) for gap in gaps)
        accounted = sum(own[i] for i, _ in main)
        return wait, chunk_work, loop_wall, accounted

    def max_concurrent(self, name: str) -> int:
        events = sorted(
            e for s in self.spans if s[0] == name for e in ((s[1], 1), (s[2], -1))
        )
        best = live = 0
        for _, step in events:
            live += step
            best = max(best, live)
        return best


def _gaps(lo: float, hi: float, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Parts of [lo, hi] not covered by the sorted, disjoint `intervals`."""
    gaps, cur = [], lo
    for a, b in intervals:
        if a > cur:
            gaps.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        gaps.append((cur, hi))
    return gaps


def _overlap(gap: tuple[float, float], intervals: list[tuple[float, float]]) -> float:
    """Length of `gap` covered by the union of the sorted `intervals`."""
    covered, cur = 0.0, gap[0]
    for a, b in intervals:
        a, b = max(a, cur), min(b, gap[1])
        if b > a:
            covered += b - a
            cur = b
    return covered
