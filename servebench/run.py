#!/usr/bin/env python3
"""Served-path benchmark: builds the driver and runs one workload.

    python3 servebench/run.py --workload hh_ingest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
(the library, lps_serve and the driver) into .bench_build; later runs
only re-check the build. The driver's last stdout line, one JSON object
with correct/attempted/failed/metrics, is this script's last line. Any
failure to build or to run exits non-zero without that line.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("hh_ingest", "sampler_window_spill", "tenant_fanin", "epoch_fold")
DRIVER_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> bool:
    """Configures once, then builds; tool output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"servebench: {root} holds no lps source tree to build",
              file=sys.stderr)
        return 1
    build_dir = root / ".bench_build"
    if not build(bench_dir, build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    # A run killed on its timeout leaves its data directory behind.
    work_dir = build_dir / "work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    command = [str(build_dir / "servebench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-bin", str(build_dir / "lps" / "lps_serve"),
               "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: driver ran past {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
