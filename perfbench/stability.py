#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread and its count determinism.

Spread: runs every workload once per seed and prints, per end-to-end metric,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median next to the metric's bound:

    python3 perfbench/stability.py --seeds 1-10

Determinism audit: runs the traced benchmark several times on one seed,
marks each per-layer count "exact" when every run printed the same value,
"spread" otherwise, and records the verdicts in perfbench/layers.json. A
count once seen to spread stays "spread" (only exact counts may gate a
change, so one disagreeing run is enough); delete its mark to re-audit it:

    python3 perfbench/stability.py --audit 3 --seeds 1

Run from the repository root. Results are also written as JSON to --out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong count")
    return res


def spread(args, bench):
    out = {}
    for w in args.workloads:
        runs = [run_once(w, s, args.seconds, 0) for s in args.seeds]
        out[w] = {}
        print(f"{w} ({len(runs)} runs)")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            out[w][m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": rel}
            flag = "ok" if rel < m["bound"] / 3 else ("WIDE" if rel > m["bound"] else "tight")
            print(f"  {m['name']:18} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {rel:7.4f}  bound {m['bound']:.3f}  {flag}")
    return out


def audit(args, bench):
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    out = {}
    for w in args.workloads:
        runs = [run_once(w, args.seeds[0], args.seconds, 1) for _ in range(args.audit)]
        out[w] = {}
        for name in counts:
            vals = [r["metrics"][name]["value"] for r in runs]
            out[w][name] = {"verdict": "exact" if len(set(vals)) == 1 else "spread", "values": vals}
            print(f"{w:16} {name:32} {out[w][name]['verdict']:6} {vals}")
    record_determinism(out)
    return out


def record_determinism(verdicts):
    path = os.path.join(HERE, "layers.json")
    with open(path) as f:
        doc = json.load(f)
    for entry in doc["per_layer"]:
        for w, counts in verdicts.items():
            marks = entry.setdefault("determinism", {})
            if entry["name"] in counts and marks.get(w) != "spread":
                marks[w] = counts[entry["name"]]["verdict"]
    # One metric per line keeps the file readable and its diffs small.
    lines = [json.dumps(e, ensure_ascii=False) for e in doc["per_layer"]]
    with open(path, "w") as f:
        f.write('{\n "about": ' + json.dumps(doc["about"], ensure_ascii=False) + ',\n "per_layer": [\n  '
                + ',\n  '.join(lines) + '\n ]\n}\n')


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--audit", type=int, default=0, help="traced runs per workload on the first seed")
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "stability.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args.workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    args.seeds = seeds_of(args.seeds)
    args.seconds = args.seconds or bench["run_seconds"]
    result = audit(args, bench) if args.audit else spread(args, bench)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)


if __name__ == "__main__":
    main()
