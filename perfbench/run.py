#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
repository's libraries and the benchmark program into .bench_build/perfbench
(about a minute on four cores); later calls only rebuild what changed. The
program's last line of standard output is the result JSON; build output and
progress go to standard error. Without the repository sources next to this
directory the script exits non-zero and prints no result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, env, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        sys.exit(f"perfbench: build step failed ({result.returncode}): "
                 f"{' '.join(cmd)}")


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the repository sources (src/CMakeLists.txt) "
                 "are missing; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env,
                    BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(BUILD), "-j", "4",
                 "--target", "perfbench"], env, BUILD_TIMEOUT_S)


def main():
    env = dict(os.environ)
    # Compiler and program temporaries stay inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    build(env)
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:], "--work-dir", str(WORK)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
