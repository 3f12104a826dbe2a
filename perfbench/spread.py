#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each metric, the distance between the first and third
quartile of its values over several seeds, as a share of their median.

    python3 perfbench/spread.py --workload pipeline-tsv-s18 --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --json out.json

Run from the repository root. Each run goes through perfbench/run.py with
BENCHMARK.json's run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for name in names:
        runs[name] = []
        for seed in parse_seeds(args.seeds):
            result = run_once(name, seed, spec["run_seconds"])
            runs[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        print(f"\n{name}")
        print(f"  {'metric':<14}{'median':>14}{'spread':>9}{'bound':>8}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else \
                (" (above bound/3)" if spread <= bound else " (ABOVE BOUND)")
            print(f"  {metric:<14}{med:>14.6g}{spread:>9.3f}{bound:>8}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
