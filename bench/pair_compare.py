#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload by the pair rule.

    python3 bench/pair_compare.py --parent ../parent --change . \\
        --workload reduce-flood --pairs 10 --seed 11 --seconds 27 \\
        --out bench/results/BENCH_reduce-flood.json
    python3 bench/pair_compare.py --summarize bench/results/BENCH_reduce-flood.json
    python3 bench/pair_compare.py --self-test

A pair is one `perfbench/run.py --trace 0` run of each checkout with the same
seed; pair i uses seed + i.  The order alternates (parent first in even
pairs, change first in odd ones), so slow drift on the host touches both
sides alike.  Each checkout builds into its own CARGO_TARGET_DIR,
<checkout>/.bench_build, set explicitly so that an inherited value cannot
make the two sides share a build.  The results file is rewritten after
every pair.

For every end-to-end metric in BENCHMARK.json the summary shows each side's
median and quartiles over the pairs, how many pairs the change won, the
pair-rule verdict, and whether the change's median is worse than the
parent's by more than the metric's bound.

Pair rule: the change wins at least 9 of 10 pairs (90% of them, rounded up)
and the gap between the medians exceeds the parent's interquartile range.
The verdict is "gain" when that holds, "loss" when it holds the other way,
and "none" otherwise.  It is "refused" for the metrics of an instantiation
that had fewer than run.py's CLEAN_TRIALS undisturbed trials in any run of
the comparison (run.py prints that count on stderr); setup_s and
peak_rss_mib span all three instantiations and are refused if any had.
The bound check is printed either way.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

MODES = ("threaded", "process", "remote")
CLEAN_TRIALS = 6  # perfbench/run.py's CLEAN_TRIALS
WIN_SHARE = 0.9
TRIALS_LINE = re.compile(r"^\s*(threaded|process|remote)\s+(\d+) trials, (\d+) with host steal")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def clean_trials(stderr):
    """{instantiation: undisturbed trials} from run.py's stderr summary."""
    counts = {}
    for line in stderr.splitlines():
        match = TRIALS_LINE.match(line)
        if match:
            counts[match.group(1)] = int(match.group(3))
    return counts


def run_side(checkout, workload, seed, seconds, label):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"pair_compare: {label} run failed (seed {seed})")
    return {"result": json.loads(lines[-1]), "clean": clean_trials(proc.stderr)}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_values(pairs, side, name):
    return [pair[side]["result"]["metrics"][name]["value"] for pair in pairs
            if name in pair[side]["result"]["metrics"]]


def min_clean(pairs, name):
    mode = name.rsplit(".", 1)[-1]
    modes = [mode] if mode in MODES else list(MODES)
    return min(pair[side]["clean"].get(m, 0)
               for pair in pairs for side in ("parent", "change") for m in modes)


def judge(parent, change, better, bound, clean):
    """Summary of one metric over paired runs (parent[i] pairs change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    need = math.ceil(WIN_SHARE * len(parent))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0: the change is better
    if clean < CLEAN_TRIALS:
        verdict = "refused"
    elif wins >= need and gap > p_q3 - p_q1:
        verdict = "gain"
    elif losses >= need and -gap > p_q3 - p_q1:
        verdict = "loss"
    else:
        verdict = "none"
    worse_share = -gap / p_med if p_med else 0.0
    return {
        "better": better,
        "bound": bound,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "pairs": len(parent),
        "wins": wins,
        "verdict": verdict,
        "min_clean_trials": clean,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else 0.0,
        "worse_than_bound": worse_share > bound,
    }


def summarize(pairs, end_to_end):
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        parent = metric_values(pairs, "parent", name)
        change = metric_values(pairs, "change", name)
        if not parent or len(parent) != len(change):
            continue
        summary[name] = judge(parent, change, metric["better"], metric["bound"],
                              min_clean(pairs, name))
    return summary


def fmt(value):
    for scale, suffix in ((1e6, "M"), (1e3, "k")):
        if abs(value) >= 10 * scale:
            return f"{value / scale:.4g}{suffix}"
    return f"{value:.4g}"


def print_summary(workload, pairs, summary):
    failed = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")}
    attempted = {side: sum(p[side]["result"]["attempted"] for p in pairs)
                 for side in ("parent", "change")}
    print(f"{workload}: {len(pairs)} pairs, failed operations parent "
          f"{failed['parent']}/{attempted['parent']}, change {failed['change']}/{attempted['change']}")
    for pair in pairs:
        clean = " ".join(f"{side} " + "/".join(str(pair[side]["clean"].get(m, 0)) for m in MODES)
                         for side in ("parent", "change"))
        print(f"  seed {pair['seed']} ({pair['order'][0]} first) clean trials "
              f"threaded/process/remote: {clean}")
    print(f"  {'metric':24s} {'parent median [q1..q3]':26s} {'change median [q1..q3]':26s} "
          f"{'wins':>6s}  {'verdict':8s} change   worse than bound")
    for name, s in summary.items():
        side = {k: f"{fmt(s[k]['median'])} [{fmt(s[k]['q1'])}..{fmt(s[k]['q3'])}]"
                for k in ("parent", "change")}
        print(f"  {name:24s} {side['parent']:26s} {side['change']:26s} "
              f"{s['wins']:>3d}/{s['pairs']:<2d}  {s['verdict']:8s} "
              f"{100 * s['change_vs_parent']:+6.1f}%  "
              f"{'YES' if s['worse_than_bound'] else 'no'} (bound {s['bound']:.0%})")


def load_end_to_end():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def compare(args):
    end_to_end = load_end_to_end()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {side}", file=sys.stderr, flush=True)
            pair[side] = run_side(checkouts[side], args.workload, seed, args.seconds, side)
        pairs.append(pair)
        report = {"workload": args.workload, "seconds": args.seconds, "pairs": pairs,
                  "summary": summarize(pairs, end_to_end)}
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    print_summary(args.workload, pairs, summarize(pairs, end_to_end))


def self_test():
    """Check the rule on canned numbers; exits non-zero on the first miss."""
    stderr = ("perfbench reduce-flood seed=1 trace=0\n"
              "  threaded 9 trials, 8 with host steal <= 2%, 8 used\n"
              "  process  11 trials, 4 with host steal <= 2%, 6 used\n"
              "  remote   10 trials, 6 with host steal <= 2%, 6 used\n")
    assert clean_trials(stderr) == {"threaded": 8, "process": 4, "remote": 6}

    parent = [350, 360, 355, 370, 340, 365, 352, 377, 358, 348]
    gain = [470, 480, 475, 490, 465, 485, 472, 495, 478, 468]
    s = judge(parent, gain, "higher", 0.25, clean=6)
    assert (s["verdict"], s["wins"], s["worse_than_bound"]) == ("gain", 10, False), s
    assert judge(gain, parent, "higher", 0.25, clean=6)["verdict"] == "loss"
    # 8 of 10 wins is not enough, however large the gap.
    eight = gain[:8] + [p - 1 for p in parent[8:]]
    assert judge(parent, eight, "higher", 0.25, clean=9)["verdict"] == "none"
    # 10 of 10 wins by less than the parent's IQR is not a gain.
    narrow = [p + 1 for p in parent]
    s = judge(parent, narrow, "higher", 0.25, clean=9)
    assert (s["wins"], s["verdict"]) == (10, "none"), s
    # Latency: lower is better.
    lat_parent = [800, 820, 790, 810, 805, 815, 795, 825, 800, 812]
    lat_change = [600, 610, 590, 605, 600, 615, 598, 620, 602, 611]
    assert judge(lat_parent, lat_change, "lower", 0.25, clean=6)["verdict"] == "gain"
    # Bound: 30% worse breaches 0.25, 20% worse does not.
    assert judge([100] * 3, [70] * 3, "higher", 0.25, clean=9)["worse_than_bound"]
    assert not judge([100] * 3, [80] * 3, "higher", 0.25, clean=9)["worse_than_bound"]
    assert judge([100] * 3, [130] * 3, "lower", 0.25, clean=9)["worse_than_bound"]
    # Too few undisturbed trials: no verdict, but the bound is still checked.
    s = judge(parent, [p // 2 for p in parent], "higher", 0.25, clean=5)
    assert (s["verdict"], s["worse_than_bound"]) == ("refused", True), s

    def run(values, clean):
        metrics = {f"leaf_pkt_s.{m}": {"value": v, "unit": "1/s"} for m, v in values.items()}
        return {"result": {"metrics": metrics, "failed": 0, "attempted": 1},
                "clean": dict(clean)}
    pairs = [{"seed": 1, "order": ["parent", "change"],
              "parent": run({"process": 1.0, "remote": 1.0}, {"process": 6, "remote": 3}),
              "change": run({"process": 2.0, "remote": 2.0}, {"process": 7, "remote": 9})}]
    metrics = [{"name": f"leaf_pkt_s.{m}", "better": "higher", "bound": 0.25}
               for m in ("process", "remote")]
    summary = summarize(pairs, metrics)
    assert summary["leaf_pkt_s.process"]["verdict"] == "gain", summary
    assert summary["leaf_pkt_s.remote"]["verdict"] == "refused", summary
    print("pair_compare self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--summarize", metavar="RESULTS_JSON")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--out", metavar="RESULTS_JSON")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.summarize:
        with open(args.summarize) as f:
            report = json.load(f)
        print_summary(report["workload"], report["pairs"],
                      summarize(report["pairs"], load_end_to_end()))
    elif args.parent and args.change and args.workload:
        compare(args)
    else:
        parser.error("give --self-test, --summarize FILE, or --parent, --change and --workload")


if __name__ == "__main__":
    main()
