"""The names that the benchmark's tracer replaces stay where it looks for them.

`perfbench/run.py` times each layer by replacing these module and class
attributes with wrappers (`install_wrappers`) and calls the parsers, the
encoder and `cli.main` through their modules.  If a change drops one, for
instance an import that only the tracer reads, the benchmark run fails; this
test makes that a tier-1 failure instead.
"""

import pytest

from circsat import circuit, cli, cnf, parsers, sampler

WRAPPED = [
    (sampler, "forward"),
    (sampler, "backward"),
    (sampler, "loss_and_grad"),
    (sampler, "harden"),
    (sampler, "init_embeddings"),
    (cli, "parse_file"),
    (cli, "parse_constraints"),
    (cli, "run_sampling"),
    (cli, "main"),
    (circuit.Circuit, "validate"),
    (circuit.Circuit, "topo_order"),
    (circuit.Circuit, "eval_batch"),
    (cnf, "tseytin_encode"),
    (parsers, "parse_file"),
    (parsers, "parse_constraints"),
]


@pytest.mark.parametrize("owner,name", WRAPPED, ids=[f"{o.__name__}.{n}" for o, n in WRAPPED])
def test_wrapped_name_exists(owner, name):
    assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name} is missing"
