#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds 1]

Runs every workload of BENCHMARK.json very briefly, untraced and traced,
and checks that each run succeeds with zero failed operations and prints
every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json, with its unit.  Run from the repository root; exits 1 on the
first problem.
"""

import argparse
import json
import math
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            argv = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                      "--seconds", args.seconds, "--trace", trace]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            where = f"{workload['name']} trace={trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            for metric in expected:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: metric {metric['name']} missing")
                elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{where}: metric {metric['name']} = {got}")
            extra = set(result["metrics"]) - {m["name"] for m in expected}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if len(problems) == before:
                print(f"ok {where}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} operations, 0 failed", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
