#!/usr/bin/env python3
"""Build and run the Ficus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune (build output goes to stderr), then runs it with the same
arguments.  A traced run (--trace 1) writes its spans to
.perfbench_out/<workload>-seed<N>.trace.json.  The last line of stdout
is the benchmark's JSON result; the exit code is 0 only for a run that
passed its correctness gate.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# Every run must end within 180 s; the build of a fresh checkout may take
# longer, so only the measured run is held to this limit.
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The benchmark links the libraries of the checkout it sits in.
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no ficus source tree around " + ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", 3)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    # Its own process group, so a timeout also stops the repetition it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
