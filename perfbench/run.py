#!/usr/bin/env python3
"""Build the tree and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds `perfbench/bench.exe` and the
`satmap` executable with dune (build output goes to stderr), runs the
workload, and passes its report through to stdout; the last stdout line is
the JSON result.  Exits non-zero, without a result, when the tree cannot be
built or the workload fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["compile-hard", "compile-long", "anytime-budget", "serve-mixed"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# The whole run, build included, must end within this many seconds.
RUN_LIMIT_S = 175
# The first build of a checkout compiles the whole tree.
BUILD_LIMIT_S = 850
WORK_DIR = ".perfbench"
BENCH_EXE = "_build/default/perfbench/bench.exe"
SATMAP_EXE = "_build/default/bin/satmap_cli.exe"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(env):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    cmd = [dune, "build", "--root", ".", "./perfbench/bench.exe",
           "./bin/satmap_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run_bench(args, env, limit):
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--satmap", SATMAP_EXE, "--work", WORK_DIR]
    # Own process group, so a timeout also stops the server it starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not all(os.path.exists(p)
               for p in ["dune-project", "lib", "bin", "perfbench/dune"]):
        fail("run from the root of a satmap checkout")
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build(env)
    os.makedirs(WORK_DIR, exist_ok=True)
    built = time.monotonic() - start
    # A run ends within RUN_LIMIT_S; only a checkout's first, compiling run
    # may take longer, and its workload still gets the full limit.
    limit = max(30.0, RUN_LIMIT_S - built) if built < 60 else RUN_LIMIT_S
    code, out = run_bench(args, env, limit)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("workload exited with code %d" % code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")


if __name__ == "__main__":
    main()
