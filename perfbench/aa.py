#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (an A/A check).

Runs perfbench/run.py once per (workload, seed), untraced, for
BENCHMARK.json's run_seconds, and reports for every end-to-end metric the
distance between the first and third quartile of its values as a share of
their median (statistics.quantiles(values, n=4)). With --record the set is
stored under the name --set in a file that can hold several sets, and its
medians are compared with those of every other set already stored there.

    python3 perfbench/aa.py --seeds 1-10 --record perfbench/aa_runs.json --set a
    python3 perfbench/aa.py --seeds 11-20 --record perfbench/aa_runs.json --set b
    python3 perfbench/aa.py --workloads congest-ring --seeds 1-5

A spread at or above a third of its bound, or a median shift beyond the
bound (setup_s: median shift only), is flagged and makes the exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    stamp = json.loads(lines[0])["stamp"]
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, stamp


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--record", help="JSON file of named run sets to add to")
    ap.add_argument("--set", default="a", help="name of this set in --record")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = {}
    if args.record and os.path.isfile(args.record):
        with open(args.record) as f:
            sets = json.load(f)
    earlier = {k: v["summary"] for k, v in sets.items() if k != args.set}
    record = {"seconds": args.seconds, "seeds": args.seeds, "values": {},
              "stamps": {}, "summary": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        stamps = []
        for seed in parse_seeds(args.seeds):
            metrics, stamp = run(workload, seed, args.seconds)
            stamps.append(stamp)
            print("  run %-14s seed=%-3d steal=%s idle=%s %s" % (
                workload, seed, stamp.get("steal_frac"), stamp.get("idle_frac"),
                " ".join("%s=%.5g" % kv for kv in sorted(metrics.items()))))
            sys.stdout.flush()
            for name in bounds:
                values[name].append(metrics[name])
        record["values"][workload] = values
        record["stamps"][workload] = stamps
        record["summary"][workload] = {}
        for name, m in bounds.items():
            s, med = spread(values[name])
            row = {"median": med, "spread": s}
            note = ""
            if name != "setup_s" and s >= m["bound"] / 3:
                note += " SPREAD>=bound/3"
            shifts = ""
            for other, summary in sorted(earlier.items()):
                if workload not in summary:
                    continue
                old = summary[workload][name]["median"]
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                row["shift_vs_" + other] = worse
                shifts += " worse_than_%s=%+.3f" % (other, worse)
                if worse > m["bound"]:
                    note += " SHIFT>bound"
            flagged += bool(note)
            record["summary"][workload][name] = row
            print("%-14s %-14s median=%-12.6g spread=%6.3f bound=%.2f%s%s"
                  % (workload, name, med, s, m["bound"], shifts, note))
        sys.stdout.flush()
    if args.record:
        sets[args.set] = record
        with open(args.record, "w") as f:
            json.dump(sets, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
