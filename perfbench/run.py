"""Benchmark of the ``z2lie`` command line, driven from outside the package.

    python3 perfbench/run.py --workload verify-octonion --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run it from the root of a source checkout (``src/z2lie`` must exist).

Every op is one ``z2lie`` command in a fresh child interpreter, one child
at a time from this single parent: a closed loop with one client, which
is what a user and the determinism test pay.  No in-process cache (the
``lru_cache`` on ``extended_bch`` and ``catalog_algebra``, the memoised
``Z2Algebra`` classifications) can carry work from one op to the next.
Ops come in rounds (verify-octonion: O2 and O-2 in seeded order); new
ops start until ``--seconds`` have passed.

Each op is checked against its recorded verdict: exit code and verdict
fields of the JSON report, and byte equality with any earlier op of the
same argv.  A mismatch counts as a failed op.

``--trace 0`` reports the end-to-end metrics: median wall time and median
CPU time (user + sys of the child) per op, the highest per-child maxrss
(from ``os.wait4``, because ``RUSAGE_CHILDREN`` keeps the maximum over all
earlier children), and ``setup_s``, the median time for a fresh
interpreter to import ``z2lie.cli``.  The fastest op and the failed-op
ratio are printed too; the JSON line's ``failed``/``attempted`` carry the
latter.  No tail percentile is reported: a run holds too few ops.

``--trace 1`` fixes one round, runs each op of it untraced
and then under ``perfbench/traced.py`` while time remains, and reports the
per-layer metrics of one traced round plus the tracing overhead (traced
minus untraced round wall time, median over repetitions).  Count metrics
must repeat exactly across repetitions and every traced report must be
byte-identical to its untraced twin.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name, unit and sample count.  Exit code 2 means the benchmark
could not run (for example, no ``src/z2lie`` in the working tree).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
OP_TIMEOUT_S = 150.0

# --- statistics -------------------------------------------------------------


def quartiles(values):
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# --- ops and their recorded verdicts -----------------------------------------


def verify_verdict(doc):
    return {"passed": doc["passed"], "failed_claims": doc["failed_claims"]}


def bch_verdict(doc):
    comparison = doc["reference_comparison"]
    return {
        "fit_terms": len(doc["terms"]),
        "exact_match": comparison["exact_match"],
        "duplicate_terms": sorted(t["form"] for t in comparison["duplicate_terms"]),
    }


def correspond_verdict(doc):
    return {"passed": doc["passed"]}


@dataclass(frozen=True)
class Op:
    """One ``z2lie`` command and the verdict it must produce."""

    argv: tuple
    exit_code: int
    verdict: object  # report dict -> verdict dict
    expected: dict


def verify_octonion_round(rng):
    # O-2 exits 1 with the alternativity claim failed: the verbatim tables
    # make it non-alternative, so that verdict is the expected one.
    ops = [
        Op(("verify", "O2", "--trials", "20", "--seed", str(rng.randrange(8))),
           0, verify_verdict, {"passed": True, "failed_claims": []}),
        Op(("verify", "O-2", "--trials", "20", "--seed", str(rng.randrange(8))),
           1, verify_verdict, {"passed": False, "failed_claims": ["alternative"]}),
    ]
    rng.shuffle(ops)
    return ops


def bch_series_round(rng):
    # The printed listing doubles [x,[x,y]] and [y,[y,x]]; the report must say so.
    return [
        Op(("bch", "--degree", "7"), 0, bch_verdict,
           {"fit_terms": 320, "exact_match": False,
            "duplicate_terms": ["[x,[x,y]]", "[y,[y,x]]"]}),
    ]


def correspond_blocks_round(rng):
    # Seeds come from a small pool so that repeated argvs occur and the
    # byte-identity check has something to compare.
    return [
        Op(("correspond", "--shape", "4,4", "--trials", "240",
            "--seed", str(rng.randrange(8))),
           0, correspond_verdict, {"passed": True}),
    ]


WORKLOADS = {
    "verify-octonion": verify_octonion_round,
    "bch-series": bch_series_round,
    "correspond-blocks": correspond_blocks_round,
}

# --- child processes ----------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, env, cwd, timeout=OP_TIMEOUT_S):
    """Run ``cmd`` to completion and return its output and own rusage.

    ``os.wait4`` gives the rusage of this child alone; the child is killed
    if it outlives ``timeout`` seconds.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    killer = threading.Timer(timeout, _kill, (proc.pid,))
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        code=proc.returncode,
        stdout=out,
        stderr=err[0],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


@dataclass
class OpResult:
    op: Op
    child: ChildResult
    problems: list

    @property
    def failed(self):
        return bool(self.problems)


def check_op(op, child, seen):
    """Problems with one op's result; ``seen`` maps argv to earlier report bytes."""
    problems = []
    if child.code != op.exit_code:
        problems.append(f"exit code {child.code}, expected {op.exit_code}")
    try:
        verdict = op.verdict(json.loads(child.stdout))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    else:
        if verdict != op.expected:
            problems.append(f"verdict {verdict}, expected {op.expected}")
    earlier = seen.setdefault(op.argv, child.stdout)
    if earlier != child.stdout:
        problems.append("report bytes differ from an earlier op with the same argv")
    return problems


def run_op(op, root, seen, traced=False):
    cmd = [sys.executable]
    cmd += [str(HERE / "traced.py")] if traced else ["-m", "z2lie.cli"]
    child = run_child(cmd + list(op.argv), child_env(root), root)
    return OpResult(op, child, check_op(op, child, seen))


def measure_setup(root, repeats=SETUP_REPEATS):
    """Wall times of fresh interpreters that only import ``z2lie.cli``."""
    cmd = [sys.executable, "-c", "import z2lie.cli"]
    times = []
    for _ in range(repeats):
        child = run_child(cmd, child_env(root), root)
        if child.code != 0:
            raise RuntimeError(f"import z2lie.cli failed: {child.stderr.decode(errors='replace')}")
        times.append(child.wall_s)
    return times


def machine_info(root):
    probe = (
        "import json, sys, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    child = run_child([sys.executable, "-c", probe], child_env(root), root)
    info = json.loads(child.stdout) if child.code == 0 else {}
    info["nproc"] = os.cpu_count()
    info["python"] = platform.python_version()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var, "unset")
    return info


# --- metrics ------------------------------------------------------------------

END_TO_END = (
    ("op_wall_s_p50", "s"),
    ("op_cpu_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics: name, unit, and the probe field of traced.py it reads.
PER_LAYER = (
    ("algebra.element_mul.calls", "count", "algebra.element_mul.calls"),
    ("algebra.element_mul.self_s", "s", "algebra.element_mul.self_s"),
    ("algebra.invert.calls", "count", "algebra.invert.calls"),
    ("algebra.invert.s", "s", "algebra.invert.s"),
    ("algebra.is_alternative.s", "s", "algebra.is_alternative.s"),
    ("algebra.is_associative.s", "s", "algebra.is_associative.s"),
    ("algebra.validate_z2.calls", "count", "algebra.validate_z2.calls"),
    ("algebra.validate_z2.s", "s", "algebra.validate_z2.s"),
    ("brackets.verify_identities.s", "s", "brackets.verify_identities.s"),
    ("brackets.identity_trials", "count", "brackets.verify_identities.trials"),
    ("brackets.generate_subalgebra.s", "s", "brackets.generate_subalgebra.s"),
    ("brackets.bracket_evals", "count", None),
    ("catalog.composition_check.s", "s", "catalog.composition_check.s"),
    ("catalog.division_check.s", "s", "catalog.division_check.s"),
    ("bch.series_mul.calls", "count", "bch.series_mul.calls"),
    ("bch.series_mul.self_s", "s", "bch.series_mul.self_s"),
    ("bch.extended_bch.s", "s", "bch.extended_bch.s"),
    ("bch.bracket_basis_fit.s", "s", "bch.bracket_basis_fit.s"),
    ("bch.compare_printed_series.s", "s", "bch.compare_printed_series.s"),
    ("bch.words", "count", "bch.extended_bch.words"),
    ("linalg.span_reduce.calls", "count", "linalg.span_reduce.calls"),
    ("linalg.span_reduce.s", "s", "linalg.span_reduce.s"),
    ("linalg.span_add.calls", "count", "linalg.span_add.calls"),
    ("linalg.span_add.useful_ratio", "ratio", None),
    ("linalg.solve_columns.s", "s", "linalg.solve_columns.s"),
    ("blockmodel.mat_exp.calls", "count", "blockmodel.mat_exp.calls"),
    ("blockmodel.mat_exp.s", "s", "blockmodel.mat_exp.s"),
    ("blockmodel.mat_log.calls", "count", "blockmodel.mat_log.calls"),
    ("blockmodel.mat_log.s", "s", "blockmodel.mat_log.s"),
    ("blockmodel.sample_xi_group.s", "s", "blockmodel.sample_xi_group.s"),
    ("blockmodel.tangent_basis.s", "s", "blockmodel.tangent_basis.s"),
    ("blockmodel.xi_closure_check.s", "s", "blockmodel.xi_closure_check.s"),
    ("cli.dump.s", "s", "cli.dump.s"),
    ("cli.report_bytes", "bytes", None),
    ("trace.overhead_s", "s", None),
)


def parse_trace_stats(stderr):
    """The flat probe dict a traced child writes as its last stderr line."""
    return json.loads(stderr.decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1])


def sum_stats(stats_list):
    total = {}
    for stats in stats_list:
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def is_count(key):
    return key.endswith((".calls", ".trials", ".words", ".useful"))


def layer_values(stats, report_bytes, overhead_s):
    """Per-layer metric values from the summed probe fields of one traced round."""
    values = {}
    for name, _unit, key in PER_LAYER:
        if key is not None:
            values[name] = stats.get(key, 0)
    values["brackets.bracket_evals"] = (
        stats.get("brackets.angle.calls", 0) + stats.get("brackets.square.calls", 0)
    )
    adds = stats.get("linalg.span_add.calls", 0)
    values["linalg.span_add.useful_ratio"] = (
        stats.get("linalg.span_add.useful", 0) / adds if adds else 0.0
    )
    values["cli.report_bytes"] = report_bytes
    values["trace.overhead_s"] = overhead_s
    return values


# --- runs ---------------------------------------------------------------------


@dataclass
class RunOutcome:
    metrics: dict  # name -> (value, unit, samples)
    results: list
    extra: dict = field(default_factory=dict)  # printed only, same shape

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(r.failed for r in self.results)


def run_plain(name, root, seed, seconds):
    rng = random.Random(seed)
    setup = measure_setup(root)
    seen = {}
    results = []
    pending = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not pending:
            pending = WORKLOADS[name](rng)
        results.append(run_op(pending.pop(0), root, seen))
    walls = [r.child.wall_s for r in results]
    cpus = [r.child.cpu_s for r in results]
    metrics = {
        "op_wall_s_p50": (statistics.median(walls), "s", len(walls)),
        "op_cpu_s_p50": (statistics.median(cpus), "s", len(cpus)),
        "peak_rss_mb": (max(r.child.maxrss_mb for r in results), "MB", len(results)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    extra = {
        "op_wall_s_min": (min(walls), "s", len(walls)),
        "op_cpu_s_min": (min(cpus), "s", len(cpus)),
    }
    return RunOutcome(metrics, results, extra)


def run_traced(name, root, seed, seconds):
    """Repeat one fixed round untraced and traced while time remains."""
    ops = WORKLOADS[name](random.Random(seed))
    seen = {}
    results = []
    counts = None
    times = {}
    overheads = []
    report_bytes = 0
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        plain = [run_op(op, root, seen) for op in ops]
        traced = [run_op(op, root, seen, traced=True) for op in ops]
        results += plain + traced
        overheads.append(
            sum(r.child.wall_s for r in traced) - sum(r.child.wall_s for r in plain)
        )
        try:
            parsed = [parse_trace_stats(r.child.stderr) for r in traced]
        except (ValueError, IndexError) as exc:
            traced[0].problems.append(f"no trace stats: {exc!r}")
            break
        stats = sum_stats(parsed)
        if counts is None and parsed[0]["missing"]:
            print(f"{name} note: probes not found, reported as 0: {parsed[0]['missing']}")
        round_counts = {k: v for k, v in stats.items() if is_count(k)}
        if counts is None:
            counts = round_counts
            report_bytes = sum(len(r.child.stdout) for r in traced)
        elif round_counts != counts:
            traced[0].problems.append("traced counts differ between repetitions")
        for key, value in stats.items():
            if not is_count(key):
                times.setdefault(key, []).append(value)
    stats = dict(counts or {})
    stats.update({key: statistics.median(vals) for key, vals in times.items()})
    values = layer_values(stats, report_bytes, statistics.median(overheads))
    metrics = {
        metric: (values[metric], unit, len(overheads) if unit == "s" else 1)
        for metric, unit, _key in PER_LAYER
    }
    return RunOutcome(metrics, results)


def print_outcome(name, outcome):
    for metric, (value, unit, samples) in {**outcome.metrics, **outcome.extra}.items():
        print(f"{name} {metric} = {value:.6g} {unit} (n={samples})")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{name} failed_ops_ratio = {ratio:.6g} ratio ({outcome.failed}/{outcome.attempted})")
    for result in outcome.results:
        for problem in result.problems:
            print(f"{name} FAILED {' '.join(result.op.argv)}: {problem}")


def report_invariant_drift(name, outcome):
    """Print recorded work counts that this traced run did not reproduce."""
    invariants = json.loads((HERE / "invariants.json").read_text())
    recorded = invariants["work_counts"].get(name, {})
    for metric, expected in recorded.items():
        got = outcome.metrics.get(metric, (None,))[0]
        if got != expected:
            print(f"{name} note: {metric} = {got}, recorded baseline {expected}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "z2lie" / "cli.py").is_file():
        print(f"error: no z2lie source tree under {root}/src", file=sys.stderr)
        return 2
    # Compile once up front so that no timed child pays for writing bytecode.
    build = run_child([sys.executable, "-m", "compileall", "-q", "src"], child_env(root), root)
    if build.code != 0:
        print(f"error: compiling src failed: {build.stderr.decode(errors='replace')}",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info(root), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = run_traced if args.trace else run_plain
    metrics = {}
    attempted = failed = 0
    for name in names:
        outcome = runner(name, root, args.seed, args.seconds)
        print_outcome(name, outcome)
        if args.trace:
            report_invariant_drift(name, outcome)
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit, _samples) in outcome.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
