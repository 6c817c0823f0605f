"""Digest and count checks of workloads whose operations share their inputs."""
from argparse import Namespace

from perfbench.run import determinism_check

ARGS = Namespace(workload="ex3_fit", size="tiny", seed=918273645)


def test_fixed_inputs_require_every_operation_to_match_op_0():
    records = [{"digest": "a"}, {"digest": "a"}, {"digest": "b"}]
    counts = {0: {"nll_evals": 5}, 1: {"nll_evals": 6}, 2: {"nll_evals": 5}}
    problems = determinism_check(ARGS, records, counts, fixed_inputs=True)
    assert problems == ["op 2: digest differs from op 0 on the same inputs",
                        "op 1: counts {'nll_evals': 6} differ from op 0 on the same inputs"]


def test_varying_inputs_may_differ_between_operations():
    records = [{"digest": "a"}, {"digest": "b"}]
    args = Namespace(workload="ex3_suggest", size="tiny", seed=918273646)
    assert determinism_check(args, records, {}, fixed_inputs=False) == []
