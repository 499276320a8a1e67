#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench_driver from the checkout's sources (CMake, into
perfbench/.build), times the workload's set-up in fresh processes, runs the
measured phase, checks every output and prints the metrics, each with its
unit. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of one extra traced unit with --trace 1. The full record
(host block, raw samples, every metric) is saved under perfbench/out/.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Workload and metric names and units.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per workload: seconds one unit of work takes on the reference host
# (README.md), the fewest units a run may do, and the fresh processes whose
# set-up is timed (setup_s is their median). --seconds sets how many units
# a run measures. certify-pop16 reports the median of at least three calls:
# one call's wall time varies by about ±8 % from call to call within one
# process. A serve-certify unit is 20 distinct queries; five units give 100
# latency samples, so the p90 has ten samples beyond it. The shorter a
# set-up, the more samples it gets: the host's speed drifts between runs,
# and more samples spread over the run average more of that drift.
WORKLOADS = {
    "certify-pop16": (13.0, 3, 21),
    "ensemble-pop100k": (3.5, 1, 21),
    "verify-mregs7": (5.0, 1, 31),
    "serve-certify": (6.0, 5, 11),
}
# A run must finish within 180 s after the build; perfbench_driver's
# measured phase gets what is left after SETUP_RESERVE_S for the set-up
# samples taken after it.
RUN_DEADLINE_S = 170.0
SETUP_RESERVE_S = 15.0

# Per-layer metrics a workload cannot measure from outside the program,
# with the reason. They are reported as 0.
NOT_MEASURED = {
    "certify-pop16": {
        "engine.skip_batches": "a certificate reports no null-skip count",
    },
    "serve-certify": {
        "engine.firings": "the daemon reports firings of folded trials "
                          "only, not of the speculative ones its workers ran",
        "engine.meetings": "as engine.firings",
        "engine.skip_batches": "as engine.firings",
        "engine.ns_per_firing": "as engine.firings; certify-pop16 measures "
                                "the same engine on the same protocol",
        "smc.rounds": "the daemon folds records as they arrive, without "
                      "SPRT rounds",
        "smc.serial_s": "as smc.rounds",
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


# -- build and host -----------------------------------------------------------

def build():
    """Configure once, then bring perfbench_driver up to date. Output goes
    to stderr so stdout carries only the report."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", "2"],
                   stdout=sys.stderr, check=True)


def cmake_value(path, pattern):
    with open(path) as f:
        match = re.search(pattern, f.read(), re.MULTILINE)
    return match.group(1) if match else "unknown"


def host_block():
    """Facts needed to read a result. Results whose host blocks differ in
    anything but the load average are not comparable (steady.py
    refuses)."""
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    compiler_file = (glob.glob(os.path.join(
        BUILD_DIR, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")) or [None])[0]
    compiler = "unknown"
    if compiler_file:
        compiler = "{} {}".format(
            cmake_value(compiler_file, r'^set\(CMAKE_CXX_COMPILER_ID "(.*)"\)'),
            cmake_value(compiler_file,
                        r'^set\(CMAKE_CXX_COMPILER_VERSION "(.*)"\)'))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": cmake_value(os.path.join(BUILD_DIR, "CMakeCache.txt"),
                                  r"^CMAKE_BUILD_TYPE:STRING=(.*)$"),
        "load_avg_1m": os.getloadavg()[0],
    }


def call_driver(args, timeout):
    proc = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_driver {} failed: {}".format(
            " ".join(args), proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def serve_references(units, timeout):
    """Path of the file with the in-process certificates serve-certify's
    replies must match. They depend only on the driver build and the unit
    count, so they are computed once per build (in about as long as the
    measured phase takes) and kept in the build directory."""
    with open(DRIVER, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD_DIR, "serve-references-{}-{}.json".format(
        build_id, units))
    if not os.path.exists(path):
        references = call_driver(["references", str(units)], timeout)
        with open(path + ".tmp", "w") as f:
            json.dump(references, f)
        os.replace(path + ".tmp", path)
    return path


# -- end-to-end metrics -------------------------------------------------------

def latencies(ops):
    """Operation latencies; a failed operation counts as infinite."""
    return [math.inf if op["failure"] else op["wall_s"] for op in ops]


def as_number(value):
    return None if math.isinf(value) else value


def end_to_end(workload, setups, run):
    ops = run["ops"]
    completed = [op for op in ops if not op["failure"]]
    lat = latencies(ops)
    if workload == "serve-certify":
        wall = run["measured_wall_s"]
        cpu = run["measured_cpu_s"]
        rss = run["peak_rss_mb"] + run["loop"]["worker_peak_rss_mb"]
    else:
        wall = stats.median(lat)
        cpu = stats.median([op["cpu_s"] for op in completed]) \
            if completed else math.inf
        rss = run["peak_rss_mb"]
    return {
        "setup_s": stats.median([s["setup_s"] for s in setups]),
        "wall_s": as_number(wall),
        "cpu_s": as_number(cpu),
        "peak_rss_mb": rss,
        "query_p50_s": as_number(stats.nearest_rank(lat, 50)),
        "query_p90_s": as_number(stats.nearest_rank(lat, 90)),
        "queries_per_s": len(completed) / run["measured_wall_s"],
    }


# -- per-layer metrics --------------------------------------------------------

def load_trace(path):
    """Complete ("X") trace events as (start, end, n) tuples in seconds,
    keyed by (category, name), with n the span's numeric argument; and the
    arguments of the obs_summary footer (None when it is missing)."""
    with open(path) as f:
        events = json.load(f)
    spans = {}
    summary = None
    for event in events:
        if event.get("name") == "obs_summary":
            summary = event.get("args", {})
        if event.get("ph") != "X":
            continue
        start = event["ts"] * 1e-6
        spans.setdefault((event["cat"], event["name"]), []).append(
            (start, start + event["dur"] * 1e-6,
             event.get("args", {}).get("n")))
    return spans, summary


def trace_loss(summary):
    """Why a trace is incomplete, or "" when it holds every event."""
    if summary is None:
        return "the trace has no obs_summary footer"
    dropped = summary.get("dropped", 0)
    truncated = summary.get("truncated", 0)
    if dropped or truncated:
        return "the trace lost events: {} dropped, {} truncated".format(
            dropped, truncated)
    return ""


def intervals(spans):
    return [(s, e) for s, e, _ in spans]


def durations(spans):
    return [e - s for s, e, _ in spans]


def within(spans, window):
    start, end = window
    return [span for span in spans if span[0] >= start and span[1] <= end]


def metric_value(stats_reply, name):
    value = stats_reply["metrics"].get(name, 0)
    return value if isinstance(value, (int, float)) else 0


def engine_layer(out, trials, firings, busy_firings, threads, call_wall):
    """Engine metrics from a fleet's trial spans. `busy_firings` is the
    busy time of the trials whose firings `firings` counts."""
    busy = durations(trials)
    out["engine.trials_run"] = len(trials)
    out["engine.trial_s_p50"] = stats.median(busy)
    out["engine.trial_s_max"] = max(busy)
    out["engine.ns_per_firing"] = 1e9 * stats.ratio(busy_firings, firings)
    out["engine.fleet_busy_frac"] = stats.ratio(sum(busy), threads * call_wall)


def per_layer(workload, setups, run, spans):
    traced = run["traced"]
    out = {metric["name"]: 0.0 for metric in SPEC["per_layer"]}
    out["compile.lower_s"] = stats.median([s["lower_s"] for s in setups])
    out["compile.convert_s"] = stats.median([s["convert_s"] for s in setups])
    out["compile.transitions"] = setups[0]["transitions"]
    out["isa.compile_s"] = stats.median(traced["isa_compile_s"])
    out["isa.table_bytes"] = setups[0]["table_bytes"]

    def span(cat, name):
        return spans.get((cat, name), [])

    if workload == "certify-pop16":
        (call,) = span("perfbench", "certify")
        trials = within(span("smc", "trial"), call[:2])
        folded = traced["trials_folded"]
        busy_folded = sum(durations([t for t in trials if t[2] < folded]))
        engine_layer(out, trials, traced["firings"], busy_folded,
                     traced["threads"], call[1] - call[0])
        out["engine.firings"] = traced["firings"]
        out["engine.meetings"] = traced["meetings"]
        rounds = span("smc", "sprt_round")
        out["smc.rounds"] = len(rounds)
        out["smc.trials_folded"] = folded
        out["smc.useful_frac"] = stats.ratio(folded, len(trials))
        out["smc.serial_s"] = stats.total_self_time(intervals(rounds),
                                                    intervals(trials))
    elif workload == "ensemble-pop100k":
        (call,) = span("perfbench", "run_ensemble")
        trials = within(span("engine", "trial"), call[:2])
        totals = traced["stats"]
        engine_layer(out, trials, totals["firings"], sum(durations(trials)),
                     traced["threads"], call[1] - call[0])
        out["engine.firings"] = totals["firings"]
        out["engine.meetings"] = totals["meetings"]
        out["engine.skip_batches"] = totals["skip_batches"]
    elif workload == "verify-mregs7":
        (call,) = span("perfbench", "verify")
        (kernel,) = span("verify", "kernel_run")
        waves = span("verify", "wave")
        expands = span("verify", "expand")
        kernel_s = kernel[1] - kernel[0]
        out["verify.configs"] = traced["configs"]
        out["verify.edges"] = traced["edges"]
        out["verify.waves"] = len(waves)
        out["verify.expand_s"] = sum(durations(expands))
        out["verify.merge_s"] = stats.total_self_time(intervals(waves),
                                                      intervals(expands))
        out["verify.analyse_s"] = (call[1] - call[0]) - kernel_s
        out["verify.interner_bytes"] = traced["interner_bytes"]
        out["verify.configs_per_s"] = stats.ratio(traced["configs"], kernel_s)
    elif workload == "serve-certify":
        (loop,) = span("perfbench", "query_loop")
        window = loop[:2]
        before, after = traced["stats_before"], traced["stats_after"]

        def delta(name):
            return metric_value(after, name) - metric_value(before, name)
        executed = delta("worker.serve.trials_executed")
        trials = within(span("sim", "run_until_stable"), window)
        busy = durations(trials)
        out["engine.trials_run"] = executed
        out["engine.trial_s_p50"] = stats.median(busy)
        out["engine.trial_s_max"] = max(busy)
        out["engine.fleet_busy_frac"] = stats.ratio(
            sum(busy), traced["workers"] * traced["loop_wall_s"])
        out["smc.trials_folded"] = traced["trials_folded"]
        out["smc.useful_frac"] = stats.ratio(traced["trials_folded"],
                                             executed)
        out["serve.batches_dispatched"] = delta("serve.batches_dispatched")
        out["serve.trials_executed"] = executed
        out["serve.useful_trial_frac"] = out["smc.useful_frac"]
        waits = [n * 1e-6 for _, _, n in
                 within(span("serve", "queue_wait"), window)]
        out["serve.admission_wait_s_p50"] = stats.median(waits)
        out["serve.worker_batch_s_p50"] = stats.median(
            durations(within(span("serve", "worker_batch"), window)))
        out["serve.overhead_s_p50"] = stats.median(stats.match_overheads(
            intervals(span("perfbench", "rpc")),
            intervals(within(span("serve", "query"), window))))
        out["serve.merge_fold_s"] = sum(durations(
            within(span("serve", "merge_fold"), window)))
        out["serve.retries"] = (delta("serve.trials_reassigned")
                                + delta("serve.worker_deaths")
                                + delta("serve.queries_rejected"))

    untraced = stats.median(latencies(run["ops"])) \
        if workload != "serve-certify" else run["measured_wall_s"]
    traced_wall = run["traced_ops"][0]["wall_s"] \
        if workload != "serve-certify" else traced["loop_wall_s"]
    out["obs.trace_overhead_frac"] = traced_wall / untraced - 1.0
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one workload, print its report and save its record; returns the
    exit code: 0 when every check passed."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    host = host_block()
    unit_seconds, min_units, setup_samples = WORKLOADS[workload]
    units = max(min_units, round(seconds / unit_seconds))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "{}-seed{}-trace{}".format(workload, seed, trace)
    trace_file = os.path.join(OUT_DIR, tag + ".trace.json")

    def setup():
        return call_driver(["setup", workload],
                           timeout=deadline - time.monotonic())

    # Half the set-up samples before the measured phase and half after it,
    # so setup_s averages the host's speed over the whole run.
    try:
        run_args = ["run", workload, str(seed), str(units)]
        if trace:
            run_args += ["--trace", trace_file]
        if workload == "serve-certify":
            run_args += ["--references", serve_references(
                units, deadline - time.monotonic())]
        setups = [setup() for _ in range(setup_samples // 2)]
        run = call_driver(run_args, timeout=deadline - SETUP_RESERVE_S
                          - time.monotonic())
        setups += [setup() for _ in range(setup_samples - len(setups))]
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: {}".format(error))
        return 1

    # The traced unit runs the same checks, so a traced output that differs
    # from the measured phase's fails here too; so does a traced unit whose
    # trace lost events, since its per-layer counts would be short.
    if trace:
        spans, summary = load_trace(trace_file)
        loss = trace_loss(summary)
        for op in run["traced_ops"]:
            op["failure"] = op["failure"] or loss
    found = [op["failure"] for op in run["ops"] + run["traced_ops"]
             if op["failure"]]
    attempted = len(run["ops"]) + len(run["traced_ops"])
    notes = []
    if trace:
        kind = "per_layer"
        if found:
            values = None
            notes.append("per-layer metrics not computed: a check failed")
        else:
            values = per_layer(workload, setups, run, spans)
        for name, why in NOT_MEASURED.get(workload, {}).items():
            notes.append("{} not measured: {}".format(name, why))
    else:
        kind = "end_to_end"
        values = end_to_end(workload, setups, run)
        count = len(run["ops"])
        if stats.samples_beyond(count, 90) < stats.MIN_BEYOND:
            tail = stats.highest_tail(count)
            notes.append("query_p90_s has {} samples beyond it ({} "
                         "operations); {}".format(
                             stats.samples_beyond(count, 90), count,
                             "p{:g} is the highest percentile with ten "
                             "beyond".format(tail) if tail else
                             "no percentile has ten beyond"))
    metrics = {} if values is None else {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in SPEC[kind]}
    record = {
        "workload": workload, "seed": seed, "trace": trace, "units": units,
        "host": host, "setups": setups, "run": run, "failures": found,
        "notes": notes, "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("host: " + json.dumps(host))
    print("workload {} seed {}: {} units, {} operations, {} set-up "
          "samples".format(workload, seed, units, attempted, len(setups)))
    for text in found:
        print("FAILED: " + text)
    for text in notes:
        print("note: " + text)
    for name, metric in metrics.items():
        print("  {:28s} {} {}".format(name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not found, "attempted": attempted,
                      "failed": len(found), "metrics": metrics}))
    return 1 if found else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]]
                        + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: {}".format(error))
        return 1
    workloads = [w["name"] for w in SPEC["workloads"]] \
        if args.workload == "all" else [args.workload]
    return max([run_workload(workload, args.seed, args.seconds, args.trace)
                for workload in workloads])


if __name__ == "__main__":
    sys.exit(main())
