#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  The perfbench binary and the library it links
are built with CMake into .bench_build/perfbench (Release); the first run
builds, later runs only check that the build is current.  Build output
goes to stderr.  The binary's stdout is passed through: a "record" line
with the machine stamp, inputs, exact work counts and every sample, then
the result object as the last line.  With --trace 1 the spans are also
written to .bench_build/perfbench/traces/.  `--workload all` runs the
three workloads in turn and prints each one's metrics by name and unit,
plus its model errors, failed/attempted counts and machine stamp; it
exits 1 if any output check failed.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("flat-relay", "leach-cascade", "paper-sweep")
# The binary measures for --seconds and then finishes the operation in
# hand (at most ~10 s); anything beyond this is a hang.
GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} is not a checkout of the repository (no src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs])
    return BUILD / "perfbench"


def git_describe():
    """`git describe` of the checkout, or a marker when it is not a git
    work tree.  Discovery stops at the checkout root, so a repository
    that merely encloses it is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--tags"], capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check failure accounting and span arithmetic")
    args = parser.parse_args(argv)
    if not args.self_test:
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        if not 1 <= args.seconds <= 60:
            parser.error("--seconds must be in 1..60")
    return args


def main(argv):
    args = parse_args(argv)
    # A terminated run stops its binary too: SIGTERM unwinds through
    # subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    if subprocess.run([str(binary), "--self-test"], stdout=sys.stderr).returncode:
        fail("self-test failed")
    if args.self_test:
        return 0

    if args.workload != "all":
        sys.stdout.flush()
        return run_binary(binary, args, args.workload).returncode

    ok = True
    for workload in WORKLOADS:
        out = run_binary(binary, args, workload, capture=True).stdout
        lines = out.splitlines()
        record = json.loads(lines[-2][len("record "):])
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        for name, value in record["accuracy"].items():
            if name not in result["metrics"]:
                print(f"  {name:28s} {value:.6g} pp")
        for failure in record["failures"]:
            print(f"  FAILED: {failure}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    return 0 if ok else 1


def run_binary(binary, args, workload, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--describe", git_describe()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, timeout=args.seconds + GRACE_S,
                                stdout=subprocess.PIPE if capture else None,
                                text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench overran its time limit and was killed")
    if result.returncode != 0:
        fail(f"{workload}: perfbench exited with {result.returncode}")
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
