#!/usr/bin/env python3
"""Steadiness and comparison tooling for the repository benchmark.

  python3 perfbench/stats.py steady --workload W [--seeds 1-10]
                                    [--out runs.jsonl]
      Runs perfbench/run.py (end-to-end mode, BENCHMARK.json's
      run_seconds) once per listed seed and prints, per metric, the
      median, the quartiles and the spread (q3 - q1) / median against the
      metric's bound. A seed listed more than once (--seeds 3,3,3,3,3)
      runs that often, which separates host noise from input variance.
      Records are appended to --out.

  python3 perfbench/stats.py summary runs.jsonl [more.jsonl ...]
      The same table from records already collected.

  python3 perfbench/stats.py compare base.jsonl new.jsonl
      Per workload and end-to-end metric: both medians, the change, and a
      verdict against the bound (regressed / unresolved / ok). Refuses to
      compare records whose provenance differs (build type, compiler,
      core count, telemetry mode, run length, ...), whose seed sets differ,
      or that count a failed operation. Exits 1 when any verdict is
      REGRESSED, 2 when it refuses.

Quartiles are statistics.quantiles(values, n=4), the same rule the
benchmark's acceptance check uses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Provenance fields that may differ between records being compared.
FREE_PROVENANCE = {"git_sha", "source_digest"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_records(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.extend(json.loads(line) for line in f if line.strip())
    return records


def spread(values):
    """(q3 - q1) / median, or None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def listed_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def summarize(spec, records):
    """Prints one table per (workload, trace mode); returns False when an
    end-to-end spread (setup_s excepted) exceeds a third of its bound."""
    steady = True
    groups = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    for (workload, trace), group in sorted(groups.items()):
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        print(f"\n{workload} (trace {trace}): {len(group)} runs, seeds "
              f"{sorted(r['seed'] for r in group)}, error_rate "
              f"{failed}/{attempted} = {failed / max(attempted, 1):.3g}")
        print(f"  {'metric':42} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for m in listed_metrics(spec, trace):
            values = [r["metrics"][m["name"]]["value"]
                      for r in group if m["name"] in r["metrics"]]
            if not values:
                continue
            s = spread(values)
            bound = m.get("bound")
            ratio = s / bound if s is not None and bound else None
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            flag = ""
            if ratio is not None and ratio > 1 / 3 and m["name"] != "setup_s":
                flag = "  <-- not steady"
                steady = False
            print(f"  {m['name']:42} {statistics.median(values):14.6g} "
                  f"{q1:14.6g} {q3:14.6g} "
                  f"{'' if s is None else f'{s:8.4f}':>8} "
                  f"{'' if bound is None else bound:>6} "
                  f"{'' if ratio is None else f'{ratio:12.3f}':>12}{flag}")
    return steady


def cmd_steady(args):
    spec = load_spec()
    records = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"seed {seed}: no result (exit {done.returncode})",
                  file=sys.stderr)
            return 1
        record = json.loads(lines[-2])
        records.append(record)
        print(f"seed {seed}: correct={record['correct']} "
              f"failed={record['failed']}/{record['attempted']}",
              file=sys.stderr)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
    steady = summarize(spec, records)
    return 0 if steady and all(r["correct"] for r in records) else 1


def cmd_summary(args):
    return 0 if summarize(load_spec(), read_records(args.files)) else 1


def provenance_key(record):
    prov = {k: v for k, v in record["provenance"].items()
            if k not in FREE_PROVENANCE}
    prov["seconds"] = record["seconds"]
    return prov


def cmd_compare(args):
    spec = load_spec()
    base, new = read_records([args.base]), read_records([args.new])
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload and r["trace"] == 0]
        n = [r for r in new if r["workload"] == workload and r["trace"] == 0]
        if not b or not n:
            print(f"{workload}: missing on one side; skipped")
            continue
        keys = {json.dumps(provenance_key(r), sort_keys=True) for r in b + n}
        if len(keys) != 1:
            print(f"refusing to compare {workload}: provenance differs:",
                  file=sys.stderr)
            for key in sorted(keys):
                print(f"  {key}", file=sys.stderr)
            return 2
        if sorted(r["seed"] for r in b) != sorted(r["seed"] for r in n):
            print(f"refusing to compare {workload}: the two sides ran "
                  "different seeds", file=sys.stderr)
            return 2
        if any(r["failed"] for r in b + n):
            print(f"refusing to compare {workload}: a record counts failed "
                  "operations", file=sys.stderr)
            return 2
        print(f"\n{workload}: base {len(b)} runs, new {len(n)} runs")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            base_spread = spread(bv)
            if worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif base_spread is not None and base_spread > m["bound"]:
                better_all = (max(nv) < min(bv) if m["better"] == "lower"
                              else min(nv) > max(bv))
                verdict = "better in every run" if better_all else "unresolved"
            else:
                verdict = "ok"
            print(f"  {m['name']:26} base {bm:14.6g} new {nm:14.6g} "
                  f"worse by {worse:+8.2%} (bound {m['bound']:.0%})  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description="Steadiness and comparison tooling for the benchmark.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("steady")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_steady)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_summary)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
