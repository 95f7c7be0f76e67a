"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from ops import make_ops  # noqa: E402
from reference import Checker, eval_rules_ref, pascal_parity, row_sum_ref  # noqa: E402

DATA = os.path.join(ROOT, "src", "binomod2", "data")


def test_pascal_parity_matches_comb():
    for t in range(70):
        for b in range(-1, 72):
            want = math.comb(t, b) % 2 if b >= 0 else 0
            assert pascal_parity(t, b) == want, (t, b)


def test_row_sum_ref_counts_odd_entries_of_a_pascal_row():
    # coefficients (1,0,0,1) give 2^popcount(n)
    for n in range(300):
        assert row_sum_ref((1, 0, 0, 1), n) == 2 ** bin(n).count("1")


def test_eval_rules_ref_rejects_a_rule_that_does_not_descend():
    with pytest.raises(ValueError):
        eval_rules_ref([(1, 0, ((1, 1, 0),)), (1, 1, ((1, 2, 1),))], 8)


@pytest.fixture(scope="module")
def random_access_pass(tmp_path_factory):
    """A real random_access pass, run by the worker from the repository root."""
    tmp = tmp_path_factory.mktemp("bench")
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        env = run._worker_env(str(tmp))
        spec, out = str(tmp / "spec.json"), str(tmp / "out.json")
        _, info = run._start("setup", "random_access", spec, out, env)
        ops = make_ops("random_access", 7, info["catalog"], DATA)
        with open(spec, "w") as fh:
            json.dump(ops, fh)
        _, res = run._start("plain", "random_access", spec, out, env)
    finally:
        os.chdir(cwd)
    return Checker(info["catalog"]["entries"], DATA), ops, res["outputs"]


def test_one_corrupted_value_is_counted_as_an_error(random_access_pass):
    checker, ops, outputs = random_access_pass
    assert run.check_outputs(checker, ops, outputs) == []
    bad = [dict(o) for o in outputs]
    bad[17]["value"] = hex(int(bad[17]["value"], 16) + 1)
    failures = run.check_outputs(checker, ops, bad)
    assert [f["op"] for f in failures] == [ops[17]]
    assert len(failures) / len(ops) == 1 / 200


def test_wrong_corpus_verdicts_and_counterexamples_are_counted():
    checker = Checker({}, DATA)
    fail_line = next(i for i, s in enumerate(checker.corpus) if s["expect"] == "fail")
    pass_line = next(i for i, s in enumerate(checker.corpus) if s["expect"] == "pass" and not s["k_gt_n"])
    ops = [
        {"kind": "identity", "line": fail_line, "bound": 16},
        {"kind": "identity", "line": pass_line, "bound": 16},
    ]
    cells = 17 * 17
    wrong = [
        {"passed": True, "counterexample": None, "checked": cells},
        {"passed": False, "counterexample": [0, 0], "checked": cells},
    ]
    assert len(run.check_outputs(checker, ops, wrong)) == 2


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_UNITS + run.TRACE_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
