#!/usr/bin/env python3
"""Steadiness record of the benchmark: run it over many seeds, summarise,
and compare two records.

    python3 perfbench/steady.py run OUT.json [--seeds 1-10] [--seconds 15]
                                [--workloads a,b]
    python3 perfbench/steady.py compare A.json B.json
    python3 perfbench/steady.py table A.json

`run` calls run.py once per (workload, seed) with --trace 0 and writes the
results, the host block and, per end-to-end metric, the median, quartiles
and spread (interquartile distance as a share of the median) to OUT.json.
`compare` reports each metric's change of median between two records and
whether it stays within the bound in BENCHMARK.json; it refuses records
whose host blocks differ in anything but the load average, and checks that
runs of the same seed produced the same outputs. `table` prints a record
as the Markdown table kept in README.md.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import stats


def host_identity(host):
    return {key: value for key, value in host.items() if key != "load_avg_1m"}


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("run.py {} seed {} failed:\n{}\n{}".format(
            workload, seed, proc.stdout.strip()[-2000:],
            proc.stderr.strip()[-2000:]))
    tag = "{}-seed{}-trace0".format(workload, seed)
    with open(os.path.join(run.OUT_DIR, tag + ".json")) as f:
        record = json.load(f)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "facts": record["run"]["facts"], "host": record["host"]}


def summarise(runs, metrics):
    summary = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, q2, q3 = stats.quartiles(values)
        summary[metric["name"]] = {
            "median": q2, "q1": q1, "q3": q3,
            "spread": stats.spread(values), "bound": metric["bound"],
            "values": values}
    return summary


def cmd_run(args):
    bench = run.SPEC
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    record = {"seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(one_run(workload, seed, args.seconds))
            print("{} seed {}: {}".format(workload, seed, json.dumps(
                runs[-1]["metrics"])), flush=True)
        record["host"] = runs[0]["host"]
        record["workloads"][workload] = {
            "runs": runs, "summary": summarise(runs, bench["end_to_end"])}
        for name, s in record["workloads"][workload]["summary"].items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 \
                else "  <-- above a third of the bound"
            print("  {:14s} median {:.6g} spread {:.3f} (bound {}){}".format(
                name, s["median"], s["spread"], s["bound"], flag))
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)


def cmd_compare(args):
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    if host_identity(first["host"]) != host_identity(second["host"]):
        raise SystemExit("refusing to compare: host blocks differ:\n  {}\n  "
                         "{}".format(first["host"], second["host"]))
    better = {m["name"]: m["better"] for m in run.SPEC["end_to_end"]}
    problems = []
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        facts = {r["seed"]: r["facts"] for r in entry["runs"]}
        for r in other["runs"]:
            if r["seed"] in facts and facts[r["seed"]] != r["facts"]:
                problems.append("{} seed {}: outputs differ".format(
                    workload, r["seed"]))
        for name, s in entry["summary"].items():
            t = other["summary"][name]
            change = (t["median"] - s["median"]) / s["median"]
            worse = change if better[name] == "lower" else -change
            verdict = "ok" if worse <= s["bound"] else "WORSE THAN BOUND"
            if verdict != "ok":
                problems.append("{} {}".format(workload, name))
            print("{:18s} {:14s} {:.6g} -> {:.6g} ({:+.1%}, bound {}) "
                  "{}".format(workload, name, s["median"], t["median"],
                              change, s["bound"], verdict))
    if problems:
        raise SystemExit("not steady: " + "; ".join(problems))


def cmd_table(args):
    with open(args.record) as f:
        record = json.load(f)
    print("Host: " + json.dumps(record["host"]))
    print()
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            print("| {} | {} | {:.4g} | {:.4g} | {:.4g} | {:.3f} | {} |".format(
                workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                s["bound"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    sets = commands.add_parser("run")
    sets.add_argument("out")
    sets.add_argument("--seeds", default="1-10")
    sets.add_argument("--seconds", type=float,
                      default=run.SPEC["run_seconds"])
    sets.add_argument("--workloads", default="")
    sets.set_defaults(func=cmd_run)
    compare = commands.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    table = commands.add_parser("table")
    table.add_argument("record")
    table.set_defaults(func=cmd_table)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
