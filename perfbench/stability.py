"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/stability.py --workload bch-series --seeds 10

Runs the benchmark command of ``BENCHMARK.json`` once per seed (0, 1, ...)
from the current directory and prints, per metric (gated or only
printed), the median of the runs and the distance between their first and
third quartile as a share of that median, next to the metric's bound.
Exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import quartiles, relative_spread  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    all_correct = True
    for seed in range(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        # every printed metric line: "<workload> <metric> = <value> <unit> (n=...)"
        printed = {}
        for line in lines[:-1]:
            words = line.split()
            if len(words) >= 5 and words[0] == args.workload and words[2] == "=":
                printed[words[1]] = float(words[3])
        for name, metric in result["metrics"].items():
            printed[name] = metric["value"]
        for name, value in printed.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{name}={value:.5g}" for name, value in printed.items()
        ), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        print(f"{args.workload} {name}: median {q2:.5g} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {relative_spread(vals):.4f} bound {bounds.get(name)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
