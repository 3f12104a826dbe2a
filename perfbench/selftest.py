#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale, for every workload.

    python3 perfbench/selftest.py [--scale 12]

Run from the repository root. Checks that
  * an untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json, a traced run exactly the per-layer ones, each with its
    unit, and both pass their correctness checks;
  * a wrong pinned digest (--fault bad-digest) shows up as a counted
    failure and correct = false, not as a crash or a silent pass;
  * a reply dropped by the server in the traced run's serve layer
    (--fault drop-reply: the server shuts down mid-pass) shows up as
    counted failed requests;
  * without the repository sources the benchmark exits non-zero and
    prints no result.
Exits non-zero on the first failed check.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="12")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--scale", args.scale]
        for trace in ("0", "1"):
            code, result, _ = run(base + ["--trace", trace])
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and set(result) == KEYS,
                  f"{label}: exits 0 with the result object")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{label}: prints every metric by name and unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: every value is a number")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{label}: correct, {result['attempted']} attempted, "
                  "none failed")

        code, result, _ = run(base + ["--trace", "0", "--fault",
                                      "bad-digest"])
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a wrong pinned digest is a counted failure "
              f"({result and result['failed']} failed)")
        code, result, _ = run(base + ["--trace", "1", "--fault",
                                      "drop-reply"])
        check(code == 0 and result is not None and result["failed"] >= 1,
              f"{workload}: dropped replies are counted failures "
              f"({result and result['failed']} failed)")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, result, _ = run(["--workload", "pipeline-binary-s18", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without the repository sources: non-zero exit, no result")


if __name__ == "__main__":
    main()
