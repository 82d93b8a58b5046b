#!/usr/bin/env python3
"""Repository benchmark: one workload, run on all three tree instantiations.

    python3 perfbench/run.py --workload reduce-flood --seed 1 --seconds 27 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (the tbon libraries from src/ plus the trial binary, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

Workloads (see BENCHMARK.json for why each exists):
  reduce-flood  each back-end sends vf64[32] reports on one sum / wait_for_all
                stream as fast as credits allow (closed loop)
  reduce-paced  the same stream and reports, open loop at 20 000 waves/s;
                latency runs from each wave's scheduled time to receipt
  relay-64k     each back-end pushes 64 KiB payloads on a passthrough / null
                stream; the front-end drains and checks them

Every workload reports every end-to-end metric for every instantiation:
leaf packets and payload bytes delivered per second, and wave latency p50 /
p90 (from the scheduled time on reduce-paced, from the start of the last
contributing send on the closed-loop workloads), plus setup_s and
peak_rss_mib.

Every trial of a (workload, instantiation) runs in a fresh trial process,
so a forking instantiation never starts after threads exist.  A run makes
TRIALS short trials per instantiation, interleaved, re-runs trials that
the hypervisor disturbed (CPU steal, read from /proc/stat), and reports the
median over the used trials of each metric; setup_s is the sum over the
three instantiations of each one's median set-up time.

--trace 0 prints the end-to-end metrics; with --trace 1 every trial runs
twice, untraced and traced (telemetry on, spans recorded by the trial binary), and
the run prints the per-layer metrics, including the tracing overhead, and
writes one trial's spans per instantiation as JSON lines next to the build.  The last line of stdout is the JSON result; a readable summary goes
to stderr.  Exits non-zero without a result when the tree sources are
missing or the build fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

MODES = ("threaded", "process", "remote")
WORKLOADS = ("reduce-flood", "reduce-paced", "relay-64k")
TRIALS = 9  # fresh-process trials per instantiation; metrics are medians over them
MAX_TRIALS = 11  # including re-runs of trials the hypervisor disturbed
STEAL_LIMIT = 0.02  # share of the machine's CPU time stolen during a trial
CLEAN_TRIALS = 6  # undisturbed trials a run wants per instantiation
WARM_S = 0.3
BURN_IN_S = 1.5
TRIAL_TIMEOUT_S = 120

# Trial metric -> unit; each is reported per instantiation.
END_TO_END = {
    "leaf_pkt_s": "1/s",
    "payload_MiB_s": "MiB/s",
    "lat_p50_us": "us",
    "lat_p90_us": "us",
}
PER_LAYER = {
    "network.create_ms": "ms",
    "network.open_stream_ms": "ms",
    "network.first_wave_ms": "ms",
    "network.shutdown_ms": "ms",
    "backend.send_us_p50": "us",
    "backend.send_us_p99": "us",
    "backend.send_busy_frac": "ratio",
    "frontend.recv_wait_frac": "ratio",
    "gen.late_us_p50": "us",
    "gen.late_us_max": "us",
    "gen.backlog_waves": "waves",
    "packet.encode_ns": "ns",
    "packet.decode_ns": "ns",
    "sync.filter_ns_per_wave": "ns",
    "batch.pkts_per_frame": "pkt/frame",
    "batch.deadline_flush_share": "ratio",
    "batch.size_flush_share": "ratio",
    "batch.eager_flush_share": "ratio",
    "batch.pressure_flush_share": "ratio",
    "fc.blocked_ns_per_pkt": "ns",
    "fc.sends_blocked_share": "ratio",
    "fc.inflight_peak": "credits",
    "wire.bytes_out_per_leaf_pkt": "B/pkt",
    "net.wakeups_per_frame": "1/frame",
    "net.partial_write_share": "ratio",
    "net.send_queue_peak_kib": "KiB",
    "net.threads": "threads",
    "lat_p99_us": "us",
    "lat_p999_us": "us",
    "lat_samples": "count",
}
PRIMARY = {"reduce-flood": "leaf_pkt_s", "reduce-paced": "lat_p50_us", "relay-64k": "payload_MiB_s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir):
    """Configure and build the trial binary (incremental after the first
    run); returns its path and the build directory."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench_trial"]]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")
    return os.path.join(build_dir, "perfbench_trial"), build_dir


def reap_group(pgid):
    """Kill whatever is left in the trial's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_trial(binary, **kwargs):
    """Run one trial process; returns its parsed result (None on a crash)."""
    argv = [binary] + [f"{key}={value}" for key, value in kwargs.items()]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        print(f"perfbench: trial timed out: {' '.join(argv)}", file=sys.stderr)
        return None
    finally:
        reap_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: trial exited {proc.returncode}: {' '.join(argv)}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    for message in result["errors"]:
        print(f"perfbench: {kwargs['workload']}/{kwargs['mode']}: {message}", file=sys.stderr)
    return result


class Tally:
    """Operations attempted and failed over every trial process of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.crashed = False

    def add(self, result):
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.crashed = True
            return {}
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result["metrics"]


def cpu_time():
    """(all, stolen) CPU time of the machine so far, in clock ticks, from
    /proc/stat; zeros where that is unreadable."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return sum(ticks), ticks[7]
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_trials(binary, args, tally, traced=False, trace_dir=None):
    """Short trials per instantiation, each in a fresh trial process,
    interleaved across instantiations so slow drift on the host touches all
    three alike.  With `traced`, a trial is two runs: untraced, then traced.

    A trial during which the hypervisor stole more than STEAL_LIMIT of the
    machine's CPU time is kept but re-run, up to MAX_TRIALS per
    instantiation; the metrics come from the undisturbed trials, or from the
    CLEAN_TRIALS least disturbed ones when fewer were undisturbed.  Returns
    {mode: [untraced metrics of each used trial]} and the same for the
    traced runs."""
    runs_per_trial = 2 if traced else 1
    per_trial_s = args.seconds / (len(MODES) * TRIALS * runs_per_trial)
    timing = dict(warm=WARM_S, measure=max(0.2, per_trial_s - WARM_S))
    trials = {mode: [] for mode in MODES}  # (steal share, untraced, traced)
    # Discarded burn-in: the first second or two of load after idle runs
    # fast (the host boosts idle vCPUs), so measuring starts sustained.
    tally.add(run_trial(binary, workload=args.workload, mode=MODES[0], seed=args.seed,
                         warm=WARM_S, measure=BURN_IN_S))

    def wanted(mode):
        done = trials[mode]
        clean = sum(steal <= STEAL_LIMIT for steal, _, _ in done)
        return len(done) < TRIALS or clean < CLEAN_TRIALS

    for trial in range(MAX_TRIALS):
        for mode in filter(wanted, MODES):
            common = dict(workload=args.workload, mode=mode, seed=args.seed, **timing)
            all_before, stolen_before = cpu_time()
            plain = tally.add(run_trial(binary, **common))
            with_spans = {}
            if traced:
                extra = {}
                if trial == 0:  # one trial's spans per instantiation are kept
                    extra["trace_out"] = os.path.join(
                        trace_dir, f"{args.workload}-{mode}-seed{args.seed}.jsonl")
                    print(f"  {mode:8s} spans: {extra['trace_out']}", file=sys.stderr)
                with_spans = tally.add(run_trial(binary, **common, traced=1, **extra))
            all_after, stolen_after = cpu_time()
            ticks = all_after - all_before
            steal = (stolen_after - stolen_before) / ticks if ticks > 0 else 0.0
            trials[mode].append((steal, plain, with_spans))

    plain, with_spans = {}, {}
    for mode, done in trials.items():
        clean = sum(steal <= STEAL_LIMIT for steal, _, _ in done)
        used = sorted(done, key=lambda t: t[0])[:max(CLEAN_TRIALS, clean)]
        plain[mode] = [t[1] for t in used]
        with_spans[mode] = [t[2] for t in used]
        print(f"  {mode:8s} {len(done)} trials, {clean} with host steal <= "
              f"{STEAL_LIMIT:.0%}, {len(used)} used", file=sys.stderr)
    return plain, with_spans


def median_of(trials, name):
    values = [t[name] for t in trials if name in t]
    return statistics.median(values) if values else None


def measured_run(binary, args, tally):
    per_mode, _ = run_trials(binary, args, tally)
    result = {}
    for mode, trials in per_mode.items():
        summary = []
        for name, unit in END_TO_END.items():
            value = median_of(trials, name)
            if value is None:
                continue
            result[f"{name}.{mode}"] = (value, unit)
            values = [t[name] for t in trials if name in t]
            summary.append(f"{name}={value:.6g} [{min(values):.6g}..{max(values):.6g}]")
        samples = median_of(trials, "lat_samples")
        if samples:
            summary.append(f"lat_samples={samples:.0f} per trial")
        print(f"  {mode:8s} {' '.join(summary)}", file=sys.stderr)
    setup = [median_of(per_mode[mode], "setup_s") for mode in MODES]
    if None not in setup:
        result["setup_s"] = (sum(setup), "s")
    rss = [median_of(per_mode[mode], "peak_rss_mib") for mode in MODES]
    if None not in rss:
        result["peak_rss_mib"] = (max(rss), "MiB")
    return result


def traced_run(binary, args, tally, trace_dir):
    plain, traced = run_trials(binary, args, tally, traced=True, trace_dir=trace_dir)
    primary = PRIMARY[args.workload]
    result = {}
    for mode in MODES:
        for name, unit in PER_LAYER.items():
            value = median_of(traced[mode], name)
            if value is not None:
                result[f"{name}.{mode}"] = (value, unit)
        untraced, with_trace = median_of(plain[mode], primary), median_of(traced[mode], primary)
        if untraced and with_trace is not None:
            change = 100.0 * (with_trace - untraced) / untraced
            # Tracing costs show as lower throughput or higher latency.
            overhead = change if primary.startswith("lat_") else -change
            result[f"trace.overhead_pct.{mode}"] = (overhead, "%")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(bench_dir, "..", "src", "core", "network.hpp")):
        fail("tbon sources (src/) not found next to perfbench/")
    binary, build_dir = build(bench_dir)

    tally = Tally()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        metrics = traced_run(binary, args, tally, trace_dir)
    else:
        metrics = measured_run(binary, args, tally)
    if tally.crashed:
        fail("a trial process failed; no result")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
