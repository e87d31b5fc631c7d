#!/usr/bin/env python3
"""Exact work counts per (workload, seed): cross-seed steadiness and diffs.

    python3 perfbench/counts.py [--workloads flat-relay,...] [--seeds 1,2]
                                [--reference perfbench/reference_counts.json]
                                [--write FILE]

Runs each workload once per seed (one operation, --seconds 1) through
run.py and reads the work counts from its record line.  It then checks

  * that every pair of seeds gives work counts (events, deaths, repairs,
    elections, packets generated/forwarded/delivered, evaluations) within a
    tenth of each other, and
  * with --reference, that every count equals the recorded one for the
    same (workload, seed).  A change that only makes the simulator faster
    must leave them all unchanged.

--write stores the counts it measured in the reference format.  Exits 1
when a check fails.
"""

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flat-relay", "leach-cascade", "paper-sweep")
# Counts that measure work; drops, packets in flight at the horizon and the
# digest of the sweep's outputs are recorded and diffed but not compared
# across seeds.
WORK = ("events", "deaths", "repairs", "elections", "rounds", "generated",
        "forwarded", "delivered", "evaluations")
STEADY_WITHIN = 0.1


def measure(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    record = json.loads(next(l for l in out if l.startswith("record "))[7:])
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed: "
                         f"{record['failures']}")
    return record["counts"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    reference = json.loads(args.reference.read_text()) if args.reference else {}

    measured = {w: {str(s): measure(w, s) for s in seeds} for w in workloads}
    problems = []
    for w, by_seed in measured.items():
        for s, counts in by_seed.items():
            print(f"{w} seed {s}: " +
                  " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
            want = reference.get(w, {}).get(s)
            if want is not None and want != counts:
                diff = {k: (want.get(k), counts.get(k))
                        for k in sorted(set(want) | set(counts))
                        if want.get(k) != counts.get(k)}
                problems.append(f"{w} seed {s} differs from the reference "
                                f"(reference, now): {diff}")
        for (sa, a), (sb, b) in itertools.combinations(by_seed.items(), 2):
            for k in (k for k in WORK if k in a):
                lo, hi = sorted((a[k], b.get(k, 0)))
                if hi > 0 and (hi - lo) > STEADY_WITHIN * hi:
                    problems.append(f"{w} {k}: seed {sa} gives {a[k]}, seed "
                                    f"{sb} gives {b.get(k)}: more than "
                                    f"{STEADY_WITHIN:.0%} apart")
    if args.write:
        args.write.write_text(json.dumps(measured, indent=1, sort_keys=True)
                              + "\n")
    for p in problems:
        print("FAIL " + p)
    print("counts: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
