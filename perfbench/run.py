#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the twpp_perfbench binary plus
the program's libraries from src/) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed.
The binary's record (provenance, sample counts, details, the traced
run's layer ledger) is printed on the second-to-last line of standard
output, and the result line on the last:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 the per_layer ones; a per-layer metric of a layer the
workload does not run reads 0. Exits non-zero without a result line when
the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest-paper", "query-paper", "races-concurrent", "ingest-observed")
# A run measures for --seconds; set-up, warm-up and the traced run's replay
# come on top. The whole run must end well within 180 seconds.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("program sources not found (src/CMakeLists.txt); "
            "run from the root of a complete checkout")
    cmake_dir = os.path.join(out_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "twpp_perfbench")


def source_digest():
    """SHA-256 over the program and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def result_metrics(spec, record, trace):
    """The result line's metrics: exactly the listed ones, units checked."""
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = record["metrics"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(measured) - names)
    if unknown:
        die("twpp_perfbench reported metrics BENCHMARK.json does not list: " + ", ".join(unknown))
    out = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                die(f"twpp_perfbench did not report end-to-end metric {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']}: twpp_perfbench unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", out_dir]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    # TWPP_* variables switch program behaviour (telemetry, verification
    # hooks, fault injection); the benchmark measures the program without.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWPP_")}
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        die(f"twpp_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"twpp_perfbench exited with code {done.returncode} without a record")

    record["provenance"].update(
        {"git_sha": git_sha(), "source_digest": source_digest()})
    result = {
        "correct": bool(record["correct"]) and done.returncode == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": result_metrics(spec, record, args.trace),
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
