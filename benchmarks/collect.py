#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/results/BENCH_1.json

Each (workload, seed) is one ``benchmarks/run.py`` process, run one after
another.  For every metric the summary holds the values, their median,
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, which is what the bounds in BENCHMARK.json
are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    facts_line = next(line for line in lines if line.startswith("# workload="))
    facts = dict(kv.split("=", 1) for kv in facts_line[2:].split())
    return facts, json.loads(lines[-1])


def summarise(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary, facts = {}, None
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            facts, result = one_run(workload, seed, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:44s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        facts = {k: v for k, v in facts.items() if k not in ("workload", "seed")}
        doc = {"machine": facts, "run_seconds": SPEC["run_seconds"],
               "seeds": parse_seeds(args.seeds), "trace": args.trace,
               "workloads": summary}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
