#!/usr/bin/env python3
"""Runs one workload of the webevo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the harness (perfbench/harness.cc, linked against the webevo
library) from source into .bench_build/, then runs it. Build output goes
to stderr; the harness's stdout is passed through unchanged, so the last
line of stdout is the JSON result. Flags this script does not know
(--scale, --days, --shards, --body-bytes, --capacity) are
handed to the harness, which parses them strictly.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("incr-machinery", "periodic-content", "incr-durable-hostile")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, target)


def parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one webevo benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the argument-parsing tests")
    args, extra = parser.parse_known_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args, extra


def self_test():
    """The wrapper's own parsing, then the harness's (args_test.cc)."""
    args, extra = parse(["--workload", "incr-machinery", "--seed", "0",
                         "--seconds", "1", "--trace", "0",
                         "--body-bytes", "0"])
    ok = (args.seed == 0 and args.seconds == 1 and args.trace == 0
          and extra == ["--body-bytes", "0"])
    for bad in (["--workload", "nope"], ["--workload", "incr-machinery",
                                          "--trace", "2"],
                ["--workload", "incr-machinery", "--seconds", "0"]):
        try:
            with open(os.devnull, "w") as devnull:
                saved, sys.stderr = sys.stderr, devnull
                try:
                    parse(bad)
                finally:
                    sys.stderr = saved
            ok = False
            print("perfbench: accepted bad arguments %s" % bad,
                  file=sys.stderr)
        except SystemExit:
            pass
    if not ok:
        print("perfbench: run.py argument parsing failed", file=sys.stderr)
        return 1
    test = build("perfbench_args_test")
    if test is None:
        return 1
    return subprocess.run([test], cwd=ROOT).returncode


def main(argv):
    args, extra = parse(argv)
    if args.self_test:
        return self_test()
    harness = build("webevo_perfbench")
    if harness is None:
        return 1
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ckpt-dir", os.path.join(".bench_build", "ckpt")] + extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
