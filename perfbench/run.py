#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|scale|query|check|all \
        --seed N --seconds S --trace 0|1

The benchmark program is built (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
only the first run of a checkout compiles. Standard output carries the
spread report and, as its last line, the JSON result; build output goes
to standard error. The exit status is 0 only when every output matched the
reference. `--workload all` runs the four workloads in turn, each in its
own process. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The pinned generated programs (reference.txt holds their generator
# settings, line counts and digests): the scale tier, and the program the
# query server answers for.
SCALE_SEEDS = "255,128,4"
QUERY_SEED = "2"

WORKLOADS = ["corpus", "scale", "query", "check"]

# A run that has not finished after this long is stopped and fails.
TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def step(cmd):
    # Build chatter goes to stderr so stdout's last line stays the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd), 1)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found beside perfbench/; "
             "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", out, *generator,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def measure(binary, out, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--scale-seeds", SCALE_SEEDS, "--query-seed", QUERY_SEED]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, args.seed))]

    # The library reads VDGA_* settings (trace sinks, fault injection, job
    # counts); none of them may leak into a measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VDGA_")}
    # Its own process group, so a timeout also stops its cold-setup children.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s run did not finish in time" % workload, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    out = build_dir()
    binary = build(out)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [measure(binary, out, name, args) for name in names]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
