#!/usr/bin/env python3
"""Build and run the repo benchmark, then print its result line.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cluster|cms|serve --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --compare A.json B.json

The first form builds perfbench/ (which compiles ../src) into the
directory named by CARGO_TARGET_DIR, or .bench_build, runs one workload and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of BENCHMARK.json
with --trace 0, every per-layer metric with --trace 1. The full result,
with build provenance, percentiles and sample counts, is kept under
.bench_results/. A traced run also reports its tracing overhead against
an untraced result of the same workload and provenance, of the same seed
when there is one.

The second form compares two result files and refuses when their build
provenance differs.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
RESULTS = ".bench_results"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: nothing to build")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def load(path):
    with open(path) as f:
        return json.load(f)


def same_provenance(a, b):
    return a.get("provenance") == b.get("provenance")


def compare(a_path, b_path):
    a, b = load(a_path), load(b_path)
    if not same_provenance(a, b):
        pa, pb = a.get("provenance", {}), b.get("provenance", {})
        for key in sorted(set(pa) | set(pb)):
            if pa.get(key) != pb.get(key):
                print("provenance differs: %s: %r vs %r"
                      % (key, pa.get(key), pb.get(key)))
        print("refusing to compare results built differently")
        return 2
    print("%-22s %14s %14s %9s" % ("metric", "A", "B", "B/A-1"))
    for name, ma in sorted(a["end_to_end"].items()):
        mb = b["end_to_end"].get(name)
        if mb is None:
            continue
        rel = (mb["value"] / ma["value"] - 1.0) if ma["value"] else 0.0
        print("%-22s %14.6g %14.6g %+8.1f%%"
              % (name, ma["value"], mb["value"], 100.0 * rel))
    return 0


def trace_overhead(results_dir, result, out_path):
    """Traced minus untraced end-to-end values, against the newest untraced
    result of the same workload, provenance and seed, or failing that of
    any seed. Either way it is one pair of runs: a difference smaller than
    the run-to-run spread of the metric says nothing."""
    pattern = os.path.join(results_dir, "%s-*-trace0.json"
                           % result["workload"])
    base = None
    for path in sorted(glob.glob(pattern), key=os.path.getmtime,
                       reverse=True):
        cand = load(path)
        if not same_provenance(cand, result):
            continue
        if cand.get("seed") == result["seed"]:
            base = cand
            break
        if base is None:
            base = cand
    if base is None:
        print("trace overhead: no untraced %s result with this provenance"
              % result["workload"])
        return
    same_seed = base.get("seed") == result["seed"]
    print("trace overhead: one pair of runs (untraced seed %s, %s seed); "
          "not significant within the metrics' run-to-run spread"
          % (base.get("seed"), "same" if same_seed else "another"))
    diffs = {}
    for name, m in sorted(result["end_to_end"].items()):
        if name in base["end_to_end"]:
            d = m["value"] - base["end_to_end"][name]["value"]
            diffs[name] = {"value": d, "unit": m["unit"]}
            print("trace overhead %-20s %+.6g %s" % (name, d, m["unit"]))
    result["trace_overhead"] = {"untraced_seed": base.get("seed"),
                                "same_seed": same_seed, "metrics": diffs}
    with open(out_path, "w") as f:
        json.dump(result, f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        fail("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the checkout root")
    spec = load(spec_path)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    binary = build(root)

    results_dir = os.path.join(root, RESULTS)
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-%d-%d-trace%d" % (
        args.workload, int(time.time() * 1000), args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d" % proc.returncode)

    result = load(stem + ".json")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = result[section].get(m["name"])
        if got is None:
            fail("result lacks metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if args.trace:
        trace_overhead(results_dir, result, stem + ".json")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
