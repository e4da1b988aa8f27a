#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench with CMake, then runs the benchmark binary; its last
line of standard output is the result object. Build logs go to standard
error. The exit code is the binary's: 0 only when every output check passed.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_grid", "fleet_rollout", "tiered_migrate")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


def build(out_dir):
    generator = ["-G", "Ninja"] if _has("ninja") else []
    if not (out_dir / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(out_dir),
                           "-DCMAKE_BUILD_TYPE=Release"] + generator,
                          BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not run_logged(["cmake", "--build", str(out_dir), "--target",
                       "daos_perfbench", "-j", jobs], BUILD_TIMEOUT_S):
        return None
    binary = out_dir / "daos_perfbench"
    return binary if binary.exists() else None


def _has(program):
    return any((pathlib.Path(d) / program).exists()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def revision():
    """The git revision when run from a clone, plus a digest of the sources
    the benchmark builds, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    git = "none"
    try:
        res = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            git = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "git:%s src:%s" % (git, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    spans = out_dir / ("spans-%s-seed%d-trace%s.jsonl"
                       % (args.workload, args.seed, args.trace))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--revision", revision(),
           "--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
