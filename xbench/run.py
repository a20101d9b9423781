#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 xbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds xbench/main.exe from source with
dune (build directory .bench_build, no shared cache, so nothing is
written outside the checkout), runs it in its own process group, and
relays its standard output: the last line is the result object.
Exits non-zero without a result when the build fails or the run
overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "xbench", "main.exe")
RUN_TIMEOUT_S = 170
WORKLOADS = ["campaign-dense", "campaign-sparse", "serve-steady", "campaign-cluster"]


def build(env):
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "./xbench/main.exe",
    ]
    # dune's progress and errors go to stderr; stdout is for the result
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    if build(env) != 0 or not os.path.exists(EXE):
        print("xbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.wait()
        print("xbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        # cluster workers share the benchmark's process group
        kill_group(proc)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
