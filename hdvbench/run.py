#!/usr/bin/env python3
"""Build and run one workload of the HD-VideoBench steady-state benchmark.

Usage (from the repository root):

    python3 hdvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The codec library and the driver in this directory are built with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use. The driver's
record is checked and reduced to the metrics BENCHMARK.json names: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Every metric is printed with its unit, followed by the run's provenance,
and the last line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed build or a driver crash exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout(seconds):
    """Upper bound on one run of the benchmark binary, so a hung codec
    ends the run with an error instead of stalling its caller. Set-up,
    warm-up, checks and traced replays add a few times the measured
    seconds on top of a fixed cost."""
    return 100 + 4 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    binary = os.path.join(build_dir, "hdvbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return binary if os.path.exists(binary) else None


def source_digest():
    """SHA-256 over the benchmarked sources: the checkout need not be a
    git repository, so this names the code that was measured."""
    h = hashlib.sha256()
    for top in ("src", "hdvbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def psnr_floor(spec, workload):
    """The PSNR-Y floor the workload's entry in BENCHMARK.json states."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"PSNR-Y floor ([0-9.]+) dB", w["why"])
            return float(m.group(1)) if m else None
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {timeout} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    record = json.loads(lines[-1])

    failures = list(record["failures"])
    failed = record["failed"]
    attempted = record["attempted"]
    measured = record["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            # Per-layer metrics of layers this workload does not run are
            # reported as zero; an end-to-end metric must always exist.
            if args.trace:
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
                continue
            log(f"driver did not report {m['name']}")
            return 1
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} is not {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    floor = psnr_floor(spec, args.workload)
    psnr = measured.get("psnr_y_db", {}).get("value")
    if floor is not None and psnr is not None:
        attempted += 1
        if psnr < floor:
            failed += 1
            failures.append(f"psnr_y_db {psnr:.3f} dB below the "
                            f"{floor} dB floor")

    provenance = dict(record["provenance"])
    provenance["git_sha"] = git_sha()
    provenance["source_digest"] = source_digest()
    if provenance["cpus_granted"] < provenance["workload_threads"]:
        log("*** WARNING: fewer CPUs granted than the workload keeps busy; "
            "these figures are not comparable ***")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>18.6f} {m['unit']}")
    for f in failures:
        print(f"FAILED: {f}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"result": result, "failures": failures,
                   "provenance": provenance, "all_metrics": measured},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
