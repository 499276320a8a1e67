#!/usr/bin/env python3
"""Validate every BENCH_*.json report against its versioned schema.

One pass over all machine-readable benchmark reports, dispatched on the
schema tag each report leads with (bench_engine_v / bench_verify_v /
bench_serve_v / bench_sched_v / bench_obs_v). CI smoke jobs call this instead of re-growing per-job
grep pipelines; EXPERIMENTS.md numbers are copied from the same files.

Usage:
    python3 tools/check_bench.py [FILE...]
    python3 tools/check_bench.py --fresh FRESH.json [--factor 2.0] \
        [--warn-only] [FILE...]

With no positional arguments, validates every BENCH_*.json in the
repository root (the directory above this script). Exits non-zero with a
per-file message on the first schema violation.

--fresh FRESH.json additionally compares the committed BENCH_engine.json
against a just-measured report on the current machine and flags any row
whose throughput deviates by more than --factor (default 2.0) in either
direction — a committed baseline from different hardware or predating an
engine change fails loudly instead of anchoring EXPERIMENTS.md to numbers
nobody can reproduce. Reports whose host objects differ are a
cross-host comparison, which fails before any row is compared.
--warn-only prints deviations and host mismatches without failing (for
noisy CI runners). A fleet row whose trials, per-trial interaction budget
or firings differ from the committed row ran other work than it, and
fails even with --warn-only.
"""

import glob
import json
import os
import sys


def fail(path, message):
    raise SystemExit(f"{path}: {message}")


def require(path, condition, message):
    if not condition:
        fail(path, message)


def check_host(path, doc):
    """The rows are only readable next to the machine and build that
    produced them."""
    host = doc.get("host")
    require(path, isinstance(host, dict), "host missing")
    require(path, isinstance(host.get("nproc"), int) and host["nproc"] > 0,
            "host.nproc missing or nonpositive")
    for key in ("cpu_model", "compiler", "build_type"):
        require(path, isinstance(host.get(key), str) and host[key],
                f"host.{key} missing or empty")


def check_engine(path, doc):
    """bench_engine_v == 6: a host object and per-(mode, harness, m) rows;
    fleet rows also carry their fixed work."""
    require(path, doc.get("bench_engine_v") == 6,
            f"bench_engine_v != 6 (got {doc.get('bench_engine_v')})")
    check_host(path, doc)
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("protocol", "m", "mode", "harness", "firings_per_sec",
                    "effective_meetings_per_sec", "threads"):
            require(path, key in row, f"rows[{i}] missing {key}")
        # Rates must be real positive numbers, not zeros or NaN.
        require(path, row["firings_per_sec"] > 0,
                f"rows[{i}] nonpositive firings_per_sec")
        require(path, row["effective_meetings_per_sec"] > 0,
                f"rows[{i}] nonpositive effective_meetings_per_sec")
        require(path, row["harness"] in ("step", "fleet"),
                f"rows[{i}] bad harness {row['harness']!r}")
        if row["harness"] == "fleet":
            for key in ("trials", "per_trial_interactions", "firings"):
                require(path, isinstance(row.get(key), int) and row[key] > 0,
                        f"rows[{i}] fleet row {key} missing or nonpositive")
    # The production engine stepped and as a fleet at the certification
    # populations (|F| + 2 and |F| + 9) and at both large ones, where the
    # per-agent engine is stepped too.
    present = {(row["mode"], row["harness"], row["m"]) for row in rows}
    pinned = [(mode, harness, m)
              for m in (16, 23, 10014, 100014)
              for mode, harness in (("count+null-skip", "step"),
                                    ("count+null-skip", "fleet"))]
    pinned += [("per-agent", "step", m) for m in (10014, 100014)]
    for mode, harness, m in pinned:
        require(path, (mode, harness, m) in present,
                f"missing {mode} {harness} row at m={m}")


# The exhaustive frontier of `ppde verify 1 <m_regs>`: (configurations,
# edges, successors emitted, store bytes) per m_regs. The kernel must
# explore exactly these graphs, with exactly this much expansion work, at
# every thread count. The store's bytes are a pure function of the graph
# and the configuration layout, so a layout that grows fails here.
VERIFY_GRAPHS = {
    5: (806312, 849152, 1947440, 55651552),
    6: (1455408, 1538280, 3526892, 87423088),
    7: (2431108, 2576804, 5903308, 153685344),
}


def check_verify(path, doc):
    """bench_verify_v == 2: a host object and per-(m_regs, threads) rows
    of the S22 kernel on `ppde verify 1 <m_regs>`."""
    require(path, doc.get("bench_verify_v") == 2,
            f"bench_verify_v != 2 (got {doc.get('bench_verify_v')})")
    check_host(path, doc)
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    seen = set()
    for i, row in enumerate(rows):
        for key in ("protocol", "m_regs", "threads", "configs", "edges",
                    "successors_emitted", "wall_s", "store_bytes"):
            require(path, key in row, f"rows[{i}] missing {key}")
        require(path, row["wall_s"] > 0, f"rows[{i}] nonpositive wall_s")
        require(path, row["store_bytes"] > 0,
                f"rows[{i}] nonpositive store_bytes")
        expected = VERIFY_GRAPHS.get(row["m_regs"])
        require(path, expected is not None,
                f"rows[{i}] unexpected m_regs {row['m_regs']}")
        explored = (row["configs"], row["edges"], row["successors_emitted"],
                    row["store_bytes"])
        require(path, explored == expected,
                f"rows[{i}] m_regs={row['m_regs']} threads={row['threads']} "
                f"explored {explored[0]} configs, {explored[1]} edges, "
                f"{explored[2]} successors emitted in {explored[3]} store "
                f"bytes; expected {expected[0]}, {expected[1]}, "
                f"{expected[2]}, {expected[3]} at every thread count")
        seen.add((row["m_regs"], row["threads"]))
    for m_regs in VERIFY_GRAPHS:
        for threads in (1, 2, 4):
            require(path, (m_regs, threads) in seen,
                    f"missing row m_regs={m_regs} threads={threads}")


def row_key(row):
    """Identity of one engine row across re-measures of the same machine."""
    return (row["protocol"], row["m"], row["mode"], row["harness"],
            row["threads"])


def compare_fresh(baseline_path, fresh_path, factor, warn_only):
    """Flag baseline rows deviating more than `factor`x from a fresh
    re-measure on the current machine. A committed BENCH_engine.json from
    different hardware (or a stale one after an engine change) fails here
    instead of silently anchoring EXPERIMENTS.md to numbers nobody can
    reproduce."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    for doc, path in ((baseline, baseline_path), (fresh, fresh_path)):
        require(path, "bench_engine_v" in doc,
                "--fresh compares bench_engine_v reports only")
    # Rows measured on different machines or builds are not comparable:
    # say so instead of reporting their ratio as a regression.
    if baseline.get("host") != fresh.get("host"):
        print(f"check_bench: cross-host comparison: {baseline_path} host "
              f"{baseline.get('host')} vs {fresh_path} host "
              f"{fresh.get('host')}")
        if not warn_only:
            raise SystemExit(
                f"{baseline_path}: measured on another host or build than "
                f"{fresh_path} (re-measure on one host, or run with "
                f"--warn-only)")
    fresh_rows = {row_key(row): row for row in fresh["rows"]}
    deviations = []
    missing = []
    other_work = []
    for row in baseline["rows"]:
        other = fresh_rows.get(row_key(row))
        if other is None:
            missing.append(row_key(row))
            continue
        # A fleet row is fixed work: a re-measure that fired a different
        # number of times ran other trajectories, and its rate is no
        # measure of speed.
        work = ("trials", "per_trial_interactions", "firings")
        if row["harness"] == "fleet" and any(
                row[key] != other[key] for key in work):
            other_work.append(
                f"{row_key(row)}: baseline "
                f"{[row[key] for key in work]} vs fresh "
                f"{[other[key] for key in work]} (trials, per-trial "
                f"interactions, firings)")
            continue
        for metric in ("firings_per_sec", "effective_meetings_per_sec"):
            ratio = row[metric] / other[metric]
            if ratio > factor or ratio < 1.0 / factor:
                deviations.append(
                    f"{row_key(row)} {metric}: baseline {row[metric]:.3e} "
                    f"vs fresh {other[metric]:.3e} ({ratio:.2f}x)")
    for line in other_work:
        print(f"check_bench: fleet row ran other work: {line}")
    if other_work:
        raise SystemExit(
            f"{baseline_path}: {len(other_work)} fleet row(s) of {fresh_path} "
            f"ran other work than the committed rows (an engine change "
            f"moved the trajectories, or the budgets changed: regenerate "
            f"the baseline)")
    for key in missing:
        print(f"check_bench: fresh report has no row {key}")
    for line in deviations:
        print(f"check_bench: deviation > {factor}x: {line}")
    if not deviations and not missing:
        print(f"check_bench: {baseline_path} within {factor}x of "
              f"{fresh_path} on all {len(baseline['rows'])} rows")
    elif not warn_only:
        raise SystemExit(
            f"{baseline_path}: {len(deviations)} row(s) deviate more than "
            f"{factor}x from {fresh_path} (re-measure and commit, or "
            f"run with --warn-only)")


def check_serve(path, doc):
    """bench_serve_v == 3: a host object, certify digests with the trials
    folded and executed by worker count, and ensemble scaling."""
    require(path, doc.get("bench_serve_v") == 3,
            f"bench_serve_v != 3 (got {doc.get('bench_serve_v')})")
    check_host(path, doc)
    runs = doc.get("runs")
    require(path, isinstance(runs, list) and runs, "runs missing or empty")
    digests = set()
    for i, run in enumerate(runs):
        for key in ("workers", "wall_seconds", "verdict", "digest", "trials",
                    "trials_executed"):
            require(path, key in run, f"runs[{i}] missing {key}")
        for key in ("workers", "trials", "trials_executed"):
            require(path, isinstance(run[key], int) and run[key] > 0,
                    f"runs[{i}] {key} missing or nonpositive")
        # The look-ahead rule: a trial starts only below the fold frontier
        # plus 2 x live workers, so no more than that many trials run
        # beyond those folded.
        bound = run["trials"] + 2 * run["workers"]
        require(path, run["trials_executed"] <= bound,
                f"runs[{i}] executed {run['trials_executed']} trials for "
                f"{run['trials']} folded at {run['workers']} workers "
                f"(at most {bound})")
        digests.add(run["digest"])
    # The whole point of the daemon: sharding is invisible to the digest.
    require(path, len(digests) == 1,
            f"certificate digest varies across worker counts: {digests}")
    require(path, doc.get("digest_identical") is True,
            "digest_identical flag not true")
    ensemble_runs = doc.get("ensemble_runs")
    require(path, isinstance(ensemble_runs, list) and ensemble_runs,
            "ensemble_runs missing or empty")
    for i, run in enumerate(ensemble_runs):
        for key in ("workers", "wall_seconds", "speedup"):
            require(path, key in run, f"ensemble_runs[{i}] missing {key}")


def check_sched(path, doc):
    """bench_sched_v == 2: a host object and the scheduler x construction
    convergence table."""
    require(path, doc.get("bench_sched_v") == 2,
            f"bench_sched_v != 2 (got {doc.get('bench_sched_v')})")
    check_host(path, doc)
    trials = doc.get("trials")
    require(path, isinstance(trials, int) and trials > 0,
            "trials missing or nonpositive")
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("construction", "scenario", "population", "window",
                    "budget", "stabilised", "accepted", "interactions_p50",
                    "parallel_time_p50", "total_firings", "wall_seconds"):
            require(path, key in row, f"rows[{i}] missing {key}")
        require(path, row["population"] >= 2, f"rows[{i}] population < 2")
        require(path, 0 <= row["stabilised"] <= trials,
                f"rows[{i}] stabilised out of [0, trials]")
        require(path, 0 <= row["accepted"] <= row["stabilised"],
                f"rows[{i}] accepted > stabilised")
        require(path, row["interactions_p50"] > 0,
                f"rows[{i}] nonpositive interactions_p50")
    # The table must actually cover the S27 matrix: every scheduler
    # strategy and at least one of each fault kind, over >= 3
    # constructions (threshold protocol + the two baselines).
    constructions = {row["construction"] for row in rows}
    require(path, len(constructions) >= 3,
            f"expected >= 3 constructions, got {sorted(constructions)}")
    schedulers = {row["scenario"].split("+")[0].split(":")[0]
                  for row in rows}
    for scheduler in ("uniform", "ring", "grid", "regular", "biased",
                      "aging"):
        require(path, scheduler in schedulers,
                f"missing scheduler {scheduler}")
    faults = {row["scenario"].split("+")[1].split(":")[0]
              for row in rows if "+" in row["scenario"]}
    for fault in ("corrupt", "churn", "burst"):
        require(path, fault in faults, f"missing fault plan {fault}")


def check_obs(path, doc):
    """bench_obs_v == 2: a host object and the S29 distributed-tracing
    data-path timings."""
    require(path, doc.get("bench_obs_v") == 2,
            f"bench_obs_v != 2 (got {doc.get('bench_obs_v')})")
    check_host(path, doc)
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("name", "ns_per_op", "ops"):
            require(path, key in row, f"rows[{i}] missing {key}")
        require(path, row["ns_per_op"] > 0,
                f"rows[{i}] nonpositive ns_per_op")
        require(path, isinstance(row["ops"], int) and row["ops"] > 0,
                f"rows[{i}] nonpositive ops")
    names = {row["name"] for row in rows}
    # The report must cover both ends of the wire (worker capture +
    # serialisation, daemon stitch) and both metric surfaces (delta
    # roll-up, Prometheus render), anchored by the disabled-path row.
    for name in ("span_disabled", "span_capture", "capture_drain_per_event",
                 "stitch_emit_foreign", "delta_collect",
                 "prometheus_render"):
        require(path, name in names, f"missing row {name}")
    by_name = {row["name"]: row for row in rows}
    # The disabled path must stay orders of magnitude below the capture
    # path — the contract that lets hot loops carry spans unconditionally.
    require(path,
            by_name["span_disabled"]["ns_per_op"] <
            by_name["span_capture"]["ns_per_op"],
            "span_disabled not cheaper than span_capture")


CHECKERS = {
    "bench_engine_v": check_engine,
    "bench_verify_v": check_verify,
    "bench_serve_v": check_serve,
    "bench_sched_v": check_sched,
    "bench_obs_v": check_obs,
}


def check_file(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(path, f"unreadable or invalid JSON: {error}")
    for tag, checker in CHECKERS.items():
        if tag in doc:
            checker(path, doc)
            print(f"{path}: OK ({tag} = {doc[tag]})")
            return
    fail(path, f"no recognised schema tag (one of {sorted(CHECKERS)})")


def main(argv):
    args = argv[1:]
    fresh = None
    factor = 2.0
    warn_only = False
    paths = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--fresh":
            i += 1
            fresh = args[i]
        elif arg.startswith("--fresh="):
            fresh = arg.split("=", 1)[1]
        elif arg == "--factor":
            i += 1
            factor = float(args[i])
        elif arg.startswith("--factor="):
            factor = float(arg.split("=", 1)[1])
        elif arg == "--warn-only":
            warn_only = True
        elif arg.startswith("-"):
            raise SystemExit(f"check_bench: unknown flag {arg}")
        else:
            paths.append(arg)
        i += 1
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not paths:
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        raise SystemExit("check_bench: no BENCH_*.json files found")
    for path in paths:
        check_file(path)
    print(f"{len(paths)} report(s) valid")
    if fresh is not None:
        check_file(fresh)
        baseline = next(
            (path for path in paths
             if os.path.basename(path) == "BENCH_engine.json"), None)
        if baseline is None:
            raise SystemExit(
                "check_bench: --fresh needs BENCH_engine.json among the "
                "validated reports")
        compare_fresh(baseline, fresh, factor, warn_only)


if __name__ == "__main__":
    main(sys.argv)
