#!/usr/bin/env python3
"""End-to-end benchmark of the clique-listing library.

Builds the benchmark binary from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks every answer
against its oracle and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run's spans are
written as JSONL under the build directory. The lines before the last carry
the environment stamp and the run's info block.

    python3 perfbench/run.py --workload congest-ring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # short pass over every workload

Exit status: 0 when every answer matched, 1 on a wrong answer, a failed
build or metric names that disagree with BENCHMARK.json, 2 on bad usage or
a checkout without the library sources.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["congest-ring", "congest-k4", "serve-mix"]
RUN_TIMEOUT_S = 170
# Worker processes for the one-time build; the load generator itself stays
# at three busy threads or fewer.
BUILD_JOBS = "3"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "api", "session.hpp")):
        fail("library sources not found under %s/src" % ROOT, 2)
    out = build_dir()
    log = sys.stderr
    # The compiler's scratch files stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, env=env)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS],
                       stdout=log, stderr=log, env=env)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(out, "dcl_perfbench")


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, idle, steal)."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(v), v[3], v[7] if len(v) > 7 else 0


def git_sha():
    """HEAD's commit, read from .git directly (None outside a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (result dict, stamp dict)."""
    spans = ""
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))
    stamp = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    cpu0 = cpu_times()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail("%s exited with status %d" % (workload, r.returncode))
    result = json.loads(lines[-1])
    stamp.update(result.pop("stamp"))
    for key in ("threads", "clients"):
        stamp[key] = result["info"][key]["value"]
    stamp["loadavg_end"] = loadavg()
    cpu1 = cpu_times()
    if cpu0 and cpu1 and cpu1[0] > cpu0[0]:
        # Machine-wide shares over the run: time the hypervisor gave to
        # other guests, and time no process here wanted a CPU.
        total = cpu1[0] - cpu0[0]
        stamp["steal_frac"] = round((cpu1[2] - cpu0[2]) / total, 4)
        stamp["idle_frac"] = round((cpu1[1] - cpu0[1]) / total, 4)
    stamp["wall_s"] = round(time.monotonic() - t0, 3)
    if spans and os.path.isfile(spans):
        # The span file carries the same stamp as its first line.
        stamp["spans_jsonl"] = os.path.relpath(spans)
        with open(spans) as f:
            body = f.read()
        with open(spans, "w") as f:
            f.write(json.dumps({"stamp": stamp}) + "\n" + body)
    return result, stamp


def check_names(result, declared, workload):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail("%s: metrics %s differ from BENCHMARK.json %s"
             % (workload, sorted(got.items()), sorted(declared.items())))


def check_layer_map(per_layer):
    """Every per-layer metric appears in layer_map.json exactly once, and
    the map names only declared metrics and workloads."""
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layers = json.load(f)["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    if sorted(mapped) != sorted(per_layer):
        fail("layer_map.json metrics differ from BENCHMARK.json per_layer")
    for layer in layers:
        for w in layer["on"] + layer.get("unchanged_on", []):
            if w not in WORKLOADS:
                fail("layer_map.json names unknown workload " + w)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short checked pass over every workload, both modes")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    end_to_end, per_layer = declared_metrics()

    if args.smoke:
        check_layer_map(per_layer)
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, _ = run_once(binary, workload, args.seed, 2.0, trace)
                check_names(result, per_layer if trace else end_to_end, workload)
                if not result["correct"] or result["failed"] != 0:
                    fail("%s (trace %d): failed_frac %d/%d: %s"
                         % (workload, trace, result["failed"],
                            result["attempted"], result.get("errors")))
                print("smoke ok: %-14s trace=%d attempted=%d failed_frac=0"
                      % (workload, trace, result["attempted"]))
                for name, m in result["metrics"].items():
                    print("  %-30s %.6g %s" % (name, m["value"], m["unit"]))
        return 0

    result, stamp = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    check_names(result, per_layer if args.trace else end_to_end, args.workload)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"summary": {
        "failed_frac": result["failed"] / result["attempted"],
        "info": result["info"], "errors": result["errors"]}}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
