"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

CHEAP_VERIFY = ("verify", "C-2", "--trials", "5", "--seed", "3")


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert run.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = run.quartiles(values)
    assert q2 == statistics.median(values) == 3.75
    assert run.relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_constant_and_single_values():
    assert run.relative_spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert run.relative_spread([0.0, 0.0]) == float("inf")


def _verify_op(exit_code=0, expected=None):
    if expected is None:
        expected = {"passed": True, "failed_claims": []}
    return run.Op(CHEAP_VERIFY, exit_code, run.verify_verdict, expected)


def test_recorded_verdict_passes():
    result = run.run_op(_verify_op(), ROOT, {})
    assert result.problems == []
    assert result.child.cpu_s > 0 and result.child.maxrss_mb > 0


@pytest.mark.parametrize(
    "op",
    [
        _verify_op(expected={"passed": False, "failed_claims": ["alternative"]}),
        _verify_op(exit_code=1),
    ],
    ids=["wrong-verdict", "wrong-exit-code"],
)
def test_wrong_expectation_counts_as_failed_op(op):
    result = run.run_op(op, ROOT, {})
    assert result.failed
    outcome = run.RunOutcome({}, [result])
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_report_bytes_differing_from_same_argv_fail():
    seen = {CHEAP_VERIFY: b"{}\n"}
    result = run.run_op(_verify_op(), ROOT, seen)
    assert result.problems == [
        "report bytes differ from an earlier op with the same argv"
    ]


def _traced(argv):
    result = run.run_op(run.Op(argv, 0, lambda doc: {}, {}), ROOT, {}, traced=True)
    assert result.child.code == 0, result.child.stderr
    return result.child.stdout, run.parse_trace_stats(result.child.stderr)


@pytest.mark.parametrize("argv", [CHEAP_VERIFY, ("bch", "--degree", "4")])
def test_traced_counts_repeat_and_reports_stay_identical(argv):
    untraced = run.run_child(
        [sys.executable, "-m", "z2lie.cli", *argv], run.child_env(ROOT), ROOT
    )
    out_a, stats_a = _traced(argv)
    out_b, stats_b = _traced(argv)
    assert out_a == out_b == untraced.stdout
    assert stats_a["missing"] == []
    counts_a = {k: v for k, v in stats_a.items() if run.is_count(k)}
    counts_b = {k: v for k, v in stats_b.items() if run.is_count(k)}
    assert counts_a == counts_b
    layer = "algebra.element_mul.calls" if argv[0] == "verify" else "bch.series_mul.calls"
    assert counts_a[layer] > 0


def test_traced_wrappers_replace_from_import_bindings():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import traced, z2lie.cli, z2lie.brackets;"
        "t = traced.Tracer(); t.install();"
        "print(z2lie.cli.verify_identities is z2lie.brackets.verify_identities,"
        " z2lie.cli.validate_z2 is z2lie.algebra.validate_z2,"
        " z2lie.blockmodel.validate_z2 is z2lie.algebra.validate_z2)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(BENCH)],
        env=run.child_env(ROOT), capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["True", "True", "True"]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _key in run.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bch-series",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
