"""Gradient-based CircuitSAT sampling: relax a gate-level netlist into a
differentiable probabilistic model, learn batches of satisfying inputs by
gradient descent, and emit verified, deduplicated solutions."""

from .circuit import Circuit, CircuitError, ConstraintSet, Gate, GateKind
from .cnf import CnfFormula, tseytin_encode, write_dimacs
from .parsers import (
    ParseError,
    parse_bench,
    parse_blif,
    parse_constraints,
    parse_file,
    parse_verilog,
)
from .probsim import backward, forward
from .sampler import (
    IterationStats,
    SamplerConfig,
    SolutionSet,
    harden,
    init_embeddings,
    loss_and_grad,
    run_sampling,
)

__all__ = [
    "Circuit", "CircuitError", "ConstraintSet", "Gate", "GateKind",
    "CnfFormula", "tseytin_encode", "write_dimacs",
    "ParseError", "parse_verilog", "parse_blif", "parse_bench", "parse_file",
    "parse_constraints",
    "forward", "backward", "SamplerConfig", "IterationStats", "SolutionSet",
    "init_embeddings", "loss_and_grad", "harden", "run_sampling",
]

__version__ = "0.1.0"
