#!/usr/bin/env python3
"""Build the PowerDial benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet-scale --seed 1 \
        --seconds 20 --trace 0

The library and the benchmark program are built with CMake (Release)
into the directory named by CARGO_TARGET_DIR, or .bench_build when it
is unset, both relative to the checkout root. The program's standard
output is passed through; its last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet-scale", "slo-flash", "app-videnc")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")
    return args


def build(root, build_dir):
    """Configure (once) and build; returns the program's path."""
    log_path = build_dir / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"),
                      "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "powerdial_perfbench", "-j", BUILD_JOBS])
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return None
    return build_dir / "powerdial_perfbench"


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("perfbench: no PowerDial sources next to "
                         "perfbench/ (expected CMakeLists.txt and src/)\n")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    program = build(root, build_dir)
    if program is None:
        return 1
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    try:
        result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: the run exceeded %d s\n" %
                         RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
