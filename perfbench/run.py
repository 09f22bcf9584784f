#!/usr/bin/env python3
"""Build and run the LULESH lane benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sedov-s30 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (its own CMake project over the repository's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
lanebench binary for one workload, prints the run record (host facts that
explain run-to-run noise) and, as the last line, the binary's JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, target)


def steal_ticks():
    """Aggregate CPU steal ticks from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the checks' negative-control tests")
    a = ap.parse_args()

    start = time.monotonic()
    if a.self_test:
        exe = build("check_tests")
        if exe is None:
            return 2
        return subprocess.run([exe], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    if not a.workload:
        ap.error("--workload is required")

    exe = build("lanebench")
    if exe is None:
        return 2
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    steal1 = steal_ticks()
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench: lanebench exited with %d" % proc.returncode)
        return proc.returncode or 4
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
    omp_env = {k: v for k, v in sorted(os.environ.items())
               if k.startswith(("OMP_", "GOMP_"))}
    print("host: nproc %d, cpu steal ticks over the run %s"
          % (len(os.sched_getaffinity(0)),
             steal1 - steal0 if steal0 is not None and steal1 is not None
             else "unavailable"))
    print("env: %s" % (json.dumps(omp_env) if omp_env else "no OMP_* set"))
    print("commit: %s" % git_commit())
    print("operations: %d attempted, %d failed; run took %.1f s"
          % (result["attempted"], result["failed"], time.monotonic() - start))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
